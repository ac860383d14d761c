//! The word-access seam shared by the three constructions of a structure.
//!
//! A protocol written once against [`WordMem`] runs on plain words
//! ([`PlainMem`], the Izraelevitz construction), on a recoverable-CAS space
//! ([`SpaceMem`], the General construction and every quiescent walk), or inside a
//! normalized generator or wrap-up ([`CtxMem`]). The set search and the whole
//! map protocol use it. Dispatch is static: each caller names its accessor type.

use delayfree::NormalizedCtx;
use pmem::{PAddr, PThread};
use rcas::RcasSpace;

/// Word access for a structure protocol. `help_cas` is always the *anonymous*,
/// repetition-safe CAS of the construction; the linearizing CASes never go
/// through this trait.
pub(crate) trait WordMem {
    /// Read a formatted word's application value.
    fn read(&mut self, addr: PAddr) -> u64;
    /// Read a plain (unformatted) word: node keys, `nbuckets`.
    fn read_plain(&mut self, addr: PAddr) -> u64;
    /// Value-level helping CAS (anonymous in the detectable constructions).
    fn help_cas(&mut self, addr: PAddr, expected: u64, new: u64) -> bool;
    /// Format a fresh word to hold `value`.
    fn init_word(&mut self, addr: PAddr, value: u64);
    /// Plain store into a word nobody shares yet.
    fn write_plain(&mut self, addr: PAddr, value: u64);
    /// Bump-allocate `nwords` persistent words.
    fn alloc(&mut self, nwords: u64) -> PAddr;
    /// Flush the line holding `addr` (no fence) under the manual discipline.
    fn flush_line(&mut self, addr: PAddr);
    /// Ordering fence under the manual discipline.
    fn fence(&mut self);
}

/// Plain-word accessor: the Izraelevitz construction (durability comes from
/// the thread option's auto-flushing, so the manual hooks are no-ops).
pub(crate) struct PlainMem<'t, 'm> {
    pub t: &'t PThread<'m>,
}

impl WordMem for PlainMem<'_, '_> {
    fn read(&mut self, addr: PAddr) -> u64 {
        self.t.read(addr)
    }
    fn read_plain(&mut self, addr: PAddr) -> u64 {
        self.t.read(addr)
    }
    fn help_cas(&mut self, addr: PAddr, expected: u64, new: u64) -> bool {
        self.t.cas(addr, expected, new)
    }
    fn init_word(&mut self, addr: PAddr, value: u64) {
        self.t.write(addr, value)
    }
    fn write_plain(&mut self, addr: PAddr, value: u64) {
        self.t.write(addr, value)
    }
    fn alloc(&mut self, nwords: u64) -> PAddr {
        self.t.alloc(nwords)
    }
    fn flush_line(&mut self, _addr: PAddr) {}
    fn fence(&mut self) {}
}

/// Recoverable-CAS-space accessor: the General construction (helping CASes
/// are anonymous; flushes follow the manual discipline whenever the space
/// does).
pub(crate) struct SpaceMem<'s, 't, 'm> {
    space: &'s RcasSpace,
    t: &'t PThread<'m>,
}

impl<'s, 't, 'm> SpaceMem<'s, 't, 'm> {
    pub fn new(space: &'s RcasSpace, t: &'t PThread<'m>) -> Self {
        SpaceMem { space, t }
    }
}

impl WordMem for SpaceMem<'_, '_, '_> {
    fn read(&mut self, addr: PAddr) -> u64 {
        self.space.read(self.t, addr)
    }
    fn read_plain(&mut self, addr: PAddr) -> u64 {
        self.t.read(addr)
    }
    fn help_cas(&mut self, addr: PAddr, expected: u64, new: u64) -> bool {
        self.space.cas_anonymous(self.t, addr, expected, new)
    }
    fn init_word(&mut self, addr: PAddr, value: u64) {
        self.space.init_word(self.t, addr, value)
    }
    fn write_plain(&mut self, addr: PAddr, value: u64) {
        self.t.write(addr, value)
    }
    fn alloc(&mut self, nwords: u64) -> PAddr {
        self.t.alloc(nwords)
    }
    fn flush_line(&mut self, addr: PAddr) {
        if self.space.durable() {
            self.t.flush(addr);
        }
    }
    fn fence(&mut self) {
        if self.space.durable() {
            self.t.fence();
        }
    }
}

/// Normalized-simulator accessor: reads, plain writes and allocation go through
/// the ctx (so they are accounted to the simulated method), helping CASes use
/// the ctx's anonymous CAS, and flushes follow the manual discipline whenever
/// the simulator's space does.
pub(crate) struct CtxMem<'a, 'c, 't, 'm> {
    pub ctx: &'a mut NormalizedCtx<'c, 't, 'm>,
}

impl WordMem for CtxMem<'_, '_, '_, '_> {
    fn read(&mut self, addr: PAddr) -> u64 {
        self.ctx.read(addr)
    }
    fn read_plain(&mut self, addr: PAddr) -> u64 {
        self.ctx.read_plain(addr)
    }
    fn help_cas(&mut self, addr: PAddr, expected: u64, new: u64) -> bool {
        self.ctx.helping_cas(addr, expected, new)
    }
    fn init_word(&mut self, addr: PAddr, value: u64) {
        self.ctx.space().init_word(self.ctx.thread(), addr, value)
    }
    fn write_plain(&mut self, addr: PAddr, value: u64) {
        self.ctx.write_private(addr, value)
    }
    fn alloc(&mut self, nwords: u64) -> PAddr {
        self.ctx.alloc(nwords)
    }
    fn flush_line(&mut self, addr: PAddr) {
        if self.ctx.space().durable() {
            self.ctx.thread().flush(addr);
        }
    }
    fn fence(&mut self) {
        if self.ctx.space().durable() {
            self.ctx.thread().fence();
        }
    }
}
