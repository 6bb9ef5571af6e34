//! Guest-side descriptor-ring driver (the batched alternative to the
//! per-call [`crate::hwtask::HwTaskClient`] path).
//!
//! A ring lives in one guest page laid out per `mnv_hal::abi::ring`: a
//! shared header (guest-owned avail index, kernel-owned used index) followed
//! by a power-of-two array of 32-byte descriptors. The guest fills
//! descriptors, bumps avail, and issues **one** `RingKick` hypercall for the
//! whole batch; the Hardware Task Manager consumes the batch through its
//! normal allocation path and publishes completions back into the
//! descriptors, raising a single coalesced vIRQ per drain. Both indices are
//! free-running u16s — equality means empty, a difference of `size` means
//! full — so the ring works across the 65535→0 wrap.

use mnv_hal::abi::ring as abi;
use mnv_hal::abi::HcError;
use mnv_hal::VirtAddr;

use crate::env::{GuestEnv, GuestFault};
use crate::port;

/// Errors the ring driver can observe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RingError {
    /// All `size` descriptors are in flight; harvest completions first.
    Full,
    /// A ring-page access faulted.
    Fault(VirtAddr),
    /// The kernel refused the kick (bad header, denied…).
    Kick(HcError),
}

impl From<GuestFault> for RingError {
    fn from(f: GuestFault) -> Self {
        RingError::Fault(f.va)
    }
}

/// A harvested completion, decoded from a descriptor's kernel-written words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingCompletion {
    /// Ring slot (free-running index) this completion occupies.
    pub idx: u16,
    /// `mnv_hal::abi::ring::desc_status` code (low byte of DESC_STATUS).
    pub code: u32,
    /// Error detail (bits 15:8 of DESC_STATUS): an `HcError` code for
    /// rejections, a device error code for device failures.
    pub detail: u8,
    /// Result length in bytes (valid for OK / OK_DEGRADED).
    pub result_len: u32,
    /// The causal request id the kernel minted (matches the trace
    /// waterfall's `ReqTag`).
    pub req: u32,
}

impl RingCompletion {
    /// True when the run produced valid results (fabric or bit-identical
    /// software fallback).
    pub fn ok(&self) -> bool {
        self.code == abi::desc_status::OK || self.code == abi::desc_status::OK_DEGRADED
    }
}

/// The guest's handle on one family ring.
pub struct RingClient {
    /// VA of the ring page.
    pub base: VirtAddr,
    /// Descriptor count (power of two).
    pub size: u16,
    /// Interface family the ring serves (0 = FFT, 1 = QAM, 2 = FIR).
    pub family: u8,
    /// VA of the data section descriptor offsets are relative to.
    pub data: VirtAddr,
    /// Guest-owned free-running avail index (shadow of HDR_AVAIL).
    avail: u16,
    /// Last used index harvested from HDR_USED.
    used_seen: u16,
}

impl RingClient {
    /// Initialise the ring header in guest memory and build the client.
    /// `size` must be a power of two in 2..=[`abi::MAX_DESCS`] (the kernel
    /// re-validates on kick). Both indices start at zero.
    pub fn init(
        env: &mut dyn GuestEnv,
        family: u8,
        base: VirtAddr,
        size: u16,
        data: VirtAddr,
        iface: VirtAddr,
    ) -> Result<Self, RingError> {
        env.write_u32(base + abi::HDR_MAGIC, abi::MAGIC)?;
        env.write_u32(base + abi::HDR_SIZE, size as u32)?;
        env.write_u32(base + abi::HDR_AVAIL, 0)?;
        env.write_u32(base + abi::HDR_USED, 0)?;
        env.write_u32(base + abi::HDR_DATA_VA, data.raw() as u32)?;
        env.write_u32(base + abi::HDR_IFACE_VA, iface.raw() as u32)?;
        env.write_u32(base + abi::HDR_FAMILY, family as u32)?;
        Ok(RingClient {
            base,
            size,
            family,
            data,
            avail: 0,
            used_seen: 0,
        })
    }

    /// Descriptors posted but not yet harvested.
    pub fn in_flight(&self) -> u16 {
        self.avail.wrapping_sub(self.used_seen)
    }

    /// True when no slot is free.
    pub fn is_full(&self) -> bool {
        self.in_flight() >= self.size
    }

    fn desc(&self, idx: u16) -> VirtAddr {
        self.base + abi::desc_off(self.size, idx)
    }

    /// Post one descriptor (task + data-section window) and publish the new
    /// avail index. Returns the free-running slot index. No hypercall is
    /// issued — batch several posts, then [`Self::kick`] once.
    pub fn post(
        &mut self,
        env: &mut dyn GuestEnv,
        task: mnv_hal::HwTaskId,
        src_off: u32,
        src_len: u32,
        dst_off: u32,
        dst_cap: u32,
    ) -> Result<u16, RingError> {
        if self.is_full() {
            return Err(RingError::Full);
        }
        let idx = self.avail;
        let d = self.desc(idx);
        env.write_u32(d + abi::DESC_TASK, task.0 as u32)?;
        env.write_u32(d + abi::DESC_SRC_OFF, src_off)?;
        env.write_u32(d + abi::DESC_SRC_LEN, src_len)?;
        env.write_u32(d + abi::DESC_DST_OFF, dst_off)?;
        env.write_u32(d + abi::DESC_DST_CAP, dst_cap)?;
        env.write_u32(d + abi::DESC_STATUS, abi::desc_status::PENDING)?;
        env.write_u32(d + abi::DESC_RESULT_LEN, 0)?;
        self.avail = self.avail.wrapping_add(1);
        env.write_u32(self.base + abi::HDR_AVAIL, self.avail as u32)?;
        Ok(idx)
    }

    /// Submit everything posted since the last kick in one hypercall.
    /// Returns the number of descriptors the kernel accepted.
    pub fn kick(&self, env: &mut dyn GuestEnv) -> Result<u32, RingError> {
        port::ring_kick(env, self.base).map_err(RingError::Kick)
    }

    /// Read the kernel-owned used index and harvest any descriptors
    /// completed since the last call, in completion (= posting) order.
    pub fn harvest(&mut self, env: &mut dyn GuestEnv) -> Result<Vec<RingCompletion>, RingError> {
        let used = env.read_u32(self.base + abi::HDR_USED)? as u16;
        let mut out = Vec::new();
        while self.used_seen != used {
            let idx = self.used_seen;
            let d = self.desc(idx);
            let status = env.read_u32(d + abi::DESC_STATUS)?;
            out.push(RingCompletion {
                idx,
                code: status & 0xFF,
                detail: ((status >> 8) & 0xFF) as u8,
                result_len: env.read_u32(d + abi::DESC_RESULT_LEN)?,
                req: env.read_u32(d + abi::DESC_REQ)?,
            });
            self.used_seen = self.used_seen.wrapping_add(1);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::MockEnv;
    use crate::layout;
    use mnv_hal::abi::Hypercall;
    use mnv_hal::HwTaskId;

    fn ring(env: &mut MockEnv) -> RingClient {
        RingClient::init(
            env,
            0,
            layout::ring_page(0),
            8,
            layout::HWDATA_BASE,
            layout::hwiface_slot(0),
        )
        .unwrap()
    }

    #[test]
    fn init_writes_a_valid_header() {
        let mut env = MockEnv::new();
        let r = ring(&mut env);
        let base = r.base;
        assert_eq!(env.read_u32(base + abi::HDR_MAGIC).unwrap(), abi::MAGIC);
        assert_eq!(env.read_u32(base + abi::HDR_SIZE).unwrap(), 8);
        assert_eq!(env.read_u32(base + abi::HDR_AVAIL).unwrap(), 0);
        assert_eq!(
            env.read_u32(base + abi::HDR_DATA_VA).unwrap(),
            layout::HWDATA_BASE.raw() as u32
        );
        assert_eq!(env.read_u32(base + abi::HDR_FAMILY).unwrap(), 0);
    }

    #[test]
    fn post_fills_descriptor_and_bumps_avail() {
        let mut env = MockEnv::new();
        let mut r = ring(&mut env);
        let idx = r
            .post(&mut env, HwTaskId(3), 0x100, 512, 0x1000, 0x800)
            .unwrap();
        assert_eq!(idx, 0);
        let d = r.base + abi::desc_off(8, 0);
        assert_eq!(env.read_u32(d + abi::DESC_TASK).unwrap(), 3);
        assert_eq!(env.read_u32(d + abi::DESC_SRC_LEN).unwrap(), 512);
        assert_eq!(
            env.read_u32(d + abi::DESC_STATUS).unwrap(),
            abi::desc_status::PENDING
        );
        assert_eq!(env.read_u32(r.base + abi::HDR_AVAIL).unwrap(), 1);
        assert_eq!(r.in_flight(), 1);
    }

    #[test]
    fn full_ring_refuses_posts() {
        let mut env = MockEnv::new();
        let mut r = ring(&mut env);
        for _ in 0..8 {
            r.post(&mut env, HwTaskId(0), 0, 64, 0x1000, 64).unwrap();
        }
        assert!(r.is_full());
        assert_eq!(
            r.post(&mut env, HwTaskId(0), 0, 64, 0x1000, 64)
                .unwrap_err(),
            RingError::Full
        );
    }

    #[test]
    fn kick_is_one_hypercall_with_the_ring_va() {
        let mut env = MockEnv::new();
        let mut r = ring(&mut env);
        for _ in 0..4 {
            r.post(&mut env, HwTaskId(1), 0, 64, 0x1000, 64).unwrap();
        }
        env.respond(Hypercall::RingKick, Ok(4));
        assert_eq!(r.kick(&mut env).unwrap(), 4);
        let kicks: Vec<_> = env
            .calls
            .iter()
            .filter(|c| c.nr == Hypercall::RingKick)
            .collect();
        assert_eq!(kicks.len(), 1, "one hypercall for the whole batch");
        assert_eq!(kicks[0].a0, layout::ring_page(0).raw() as u32);
    }

    #[test]
    fn kick_error_propagates() {
        let mut env = MockEnv::new();
        let r = ring(&mut env);
        env.respond(Hypercall::RingKick, Err(HcError::BadCall));
        assert_eq!(
            r.kick(&mut env).unwrap_err(),
            RingError::Kick(HcError::BadCall)
        );
    }

    #[test]
    fn harvest_decodes_completions_in_order() {
        let mut env = MockEnv::new();
        let mut r = ring(&mut env);
        r.post(&mut env, HwTaskId(1), 0, 64, 0x1000, 64).unwrap();
        r.post(&mut env, HwTaskId(2), 0, 64, 0x2000, 64).unwrap();
        // Kernel publishes both: slot 0 OK, slot 1 degraded.
        let d0 = r.base + abi::desc_off(8, 0);
        let d1 = r.base + abi::desc_off(8, 1);
        env.write_u32(d0 + abi::DESC_STATUS, abi::desc_status::OK)
            .unwrap();
        env.write_u32(d0 + abi::DESC_RESULT_LEN, 64).unwrap();
        env.write_u32(d0 + abi::DESC_REQ, 7).unwrap();
        env.write_u32(d1 + abi::DESC_STATUS, abi::desc_status::OK_DEGRADED)
            .unwrap();
        env.write_u32(r.base + abi::HDR_USED, 2).unwrap();
        let done = r.harvest(&mut env).unwrap();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].idx, 0);
        assert!(done[0].ok());
        assert_eq!(done[0].result_len, 64);
        assert_eq!(done[0].req, 7);
        assert!(done[1].ok());
        assert_eq!(r.in_flight(), 0);
        // Nothing new: harvest is empty.
        assert!(r.harvest(&mut env).unwrap().is_empty());
    }

    #[test]
    fn indices_survive_u16_wrap() {
        let mut env = MockEnv::new();
        let mut r = ring(&mut env);
        // Pretend a long history: both indices just below the wrap.
        r.avail = 0xFFFE;
        r.used_seen = 0xFFFE;
        env.write_u32(r.base + abi::HDR_AVAIL, 0xFFFE).unwrap();
        env.write_u32(r.base + abi::HDR_USED, 0xFFFE).unwrap();
        let a = r.post(&mut env, HwTaskId(1), 0, 64, 0x1000, 64).unwrap();
        let b = r.post(&mut env, HwTaskId(1), 0, 64, 0x1000, 64).unwrap();
        let c = r.post(&mut env, HwTaskId(1), 0, 64, 0x1000, 64).unwrap();
        assert_eq!((a, b, c), (0xFFFE, 0xFFFF, 0x0000));
        assert_eq!(r.in_flight(), 3);
        // Slot 0xFFFE and 0x0000 are distinct physical descriptors mod 8.
        assert_ne!(abi::desc_off(8, a), abi::desc_off(8, c));
        // Kernel completes all three across the wrap.
        for idx in [a, b, c] {
            env.write_u32(
                r.base + abi::desc_off(8, idx) + abi::DESC_STATUS,
                abi::desc_status::OK,
            )
            .unwrap();
        }
        env.write_u32(r.base + abi::HDR_USED, 0x0001).unwrap();
        let done = r.harvest(&mut env).unwrap();
        assert_eq!(done.len(), 3);
        assert_eq!(done[2].idx, 0x0000);
        assert_eq!(r.in_flight(), 0);
    }
}
