//! Versioned, checksummed snapshots of full architectural state.
//!
//! A [`Snapshot`] captures everything needed to resume a [`Machine`]
//! bit-for-bit: GPRs, pc, privilege, CSRs, all eight hardware key
//! registers, CLB entries in recency order, execution statistics, the
//! timer and watchdog, the pending fault schedule plus its applied log,
//! and every mapped memory page. Snapshots serialize to a little-endian
//! binary format with a magic/version header and a trailing FNV-1a-64
//! checksum; [`Snapshot::from_bytes`] rejects truncation, wrong magic,
//! unknown versions, and checksum mismatches before any field is trusted.
//!
//! The companion [`Machine::arch_digest`] hashes the *architectural*
//! subset of that state — registers, CSRs, keys, CLB, memory contents,
//! cycle/retirement counters — and deliberately excludes microarchitectural
//! bookkeeping (decode-cache hit counters, page write generations) so the
//! optimized and reference datapaths digest identically when they agree.

use crate::clb::ClbStats;
use crate::cost::CostModel;
use crate::engine::{CryptoEngine, Watchdog};
use crate::fault::{AppliedFault, FaultEffect, FaultKind, FaultPlan, FaultSpec, FaultTrigger};
use crate::hart::Privilege;
use crate::machine::Machine;
use crate::mem::{PageData, PAGE_BYTES};
use crate::stats::{InsnClass, Stats};
use regvault_qarma::Key;
use std::sync::Arc;

const MAGIC: [u8; 4] = *b"RVSP";
/// Version 2 added the crypto-engine rekey-epoch state (per-`ksel` epochs,
/// the global nonce counter, and the `epoch_rekey` machine knob) after the
/// key registers. Version-1 streams still decode: they predate the
/// mitigation, so every epoch is 0 (the identity fold) and the knob is off.
const VERSION: u16 = 2;

/// FNV-1a 64-bit running hash — the checksum and digest primitive. Not
/// cryptographic; it guards against corruption and drift, not adversaries.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub(crate) fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

/// Why a snapshot failed to decode or apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before the format said it would.
    Truncated,
    /// The leading magic was not `RVSP`.
    BadMagic,
    /// The version field named a format this build does not speak.
    BadVersion(u16),
    /// The trailing checksum did not match the payload.
    BadChecksum {
        /// Checksum recomputed over the payload.
        expected: u64,
        /// Checksum stored in the stream.
        found: u64,
    },
    /// A field held a value outside its domain (bad enum tag, oversized
    /// count).
    BadEncoding(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "snapshot truncated"),
            Self::BadMagic => write!(f, "not a RegVault snapshot (bad magic)"),
            Self::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            Self::BadChecksum { expected, found } => write!(
                f,
                "snapshot checksum mismatch (expected {expected:#018x}, found {found:#018x})"
            ),
            Self::BadEncoding(what) => write!(f, "malformed snapshot field: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A captured machine state (see the module docs for the format).
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    pub(crate) reference_datapath: bool,
    pub(crate) seed: u64,
    pub(crate) regs: [u64; 32],
    pub(crate) pc: u64,
    pub(crate) privilege: Privilege,
    pub(crate) csrs: Vec<(u16, u64)>,
    pub(crate) keys: [(u64, u64); 8],
    pub(crate) epochs: [u64; 8],
    pub(crate) nonce_ctr: u64,
    pub(crate) epoch_rekey: bool,
    pub(crate) clb_capacity: usize,
    pub(crate) clb_entries: Vec<(u8, u64, u64, u64)>,
    pub(crate) clb_stats: ClbStats,
    pub(crate) cost: CostModel,
    pub(crate) stats: Stats,
    pub(crate) timer_interval: Option<u64>,
    pub(crate) next_timer: u64,
    pub(crate) watchdog: Option<(u64, u64)>,
    pub(crate) fault_pending: Vec<FaultSpec>,
    pub(crate) fault_applied: Vec<AppliedFault>,
    pub(crate) digest: u64,
    /// `(page_number, write_generation, contents)`, sorted by page number.
    ///
    /// Contents are reference-counted: capturing a snapshot shares the
    /// machine's pages instead of copying them, and restoring / forking
    /// shares them back. Copy-on-write in [`crate::Memory`] keeps every
    /// holder isolated.
    pub(crate) pages: Vec<(u64, u64, Arc<PageData>)>,
}

impl Snapshot {
    /// The architectural digest of the machine at capture time.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Number of memory pages carried by this snapshot.
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Every aligned 64-bit word whose value differs between `base` and
    /// `self`, as `(address, new_value)` pairs in address order.
    ///
    /// This is the *memory-bus observation primitive* of the ciphertext
    /// side-channel oracle: an attacker who can image memory before and
    /// after a victim interval (cold-boot, DMA, a malicious hypervisor
    /// diffing guest snapshots) sees exactly these words — ciphertext
    /// included — without any simulator instrumentation. Pages still
    /// physically shared with the base (`Arc` pointer equality) are skipped
    /// without touching their bytes, so diffing forked fleets stays cheap.
    ///
    /// Pages present only in `self` are diffed against zeroes (fresh
    /// mappings started zeroed); pages present only in `base` are ignored
    /// (the machine never unmaps).
    #[must_use]
    pub fn changed_words(&self, base: &Snapshot) -> Vec<(u64, u64)> {
        const ZERO_PAGE: [u8; PAGE_BYTES] = [0; PAGE_BYTES];
        let mut out = Vec::new();
        for (no, _gen, data) in &self.pages {
            let base_page: &[u8] = match base.pages.binary_search_by_key(no, |p| p.0) {
                Ok(i) => {
                    if Arc::ptr_eq(&base.pages[i].2, data) {
                        continue;
                    }
                    &base.pages[i].2[..]
                }
                Err(_) => &ZERO_PAGE,
            };
            let page_base = no * PAGE_BYTES as u64;
            for (offset, (new, old)) in data
                .chunks_exact(8)
                .zip(base_page.chunks_exact(8))
                .enumerate()
            {
                if new != old {
                    let word = u64::from_le_bytes(new.try_into().expect("8-byte chunk"));
                    out.push((page_base + (offset * 8) as u64, word));
                }
            }
        }
        out
    }

    /// Serializes to the versioned, checksummed binary format.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1024 + self.pages.len() * (PAGE_BYTES + 16));
        out.extend_from_slice(&MAGIC);
        put_u16(&mut out, VERSION);
        // Kind byte: 0 = full, the only kind there is.
        out.push(0);
        out.push(u8::from(self.reference_datapath));
        put_u64(&mut out, self.seed);
        for reg in self.regs {
            put_u64(&mut out, reg);
        }
        put_u64(&mut out, self.pc);
        out.push(match self.privilege {
            Privilege::User => 0,
            Privilege::Kernel => 1,
        });
        put_u32(&mut out, self.csrs.len() as u32);
        for &(addr, value) in &self.csrs {
            put_u16(&mut out, addr);
            put_u64(&mut out, value);
        }
        for &(w0, k0) in &self.keys {
            put_u64(&mut out, w0);
            put_u64(&mut out, k0);
        }
        for &epoch in &self.epochs {
            put_u64(&mut out, epoch);
        }
        put_u64(&mut out, self.nonce_ctr);
        out.push(u8::from(self.epoch_rekey));
        put_u32(&mut out, self.clb_capacity as u32);
        put_u64(&mut out, self.clb_stats.hits);
        put_u64(&mut out, self.clb_stats.misses);
        put_u64(&mut out, self.clb_stats.evictions);
        put_u64(&mut out, self.clb_stats.invalidations);
        put_u32(&mut out, self.clb_entries.len() as u32);
        for &(ksel, tweak, pt, ct) in &self.clb_entries {
            out.push(ksel);
            put_u64(&mut out, tweak);
            put_u64(&mut out, pt);
            put_u64(&mut out, ct);
        }
        for value in [
            self.cost.alu,
            self.cost.branch_not_taken,
            self.cost.branch_taken,
            self.cost.load,
            self.cost.store,
            self.cost.mul,
            self.cost.div,
            self.cost.crypto_hit,
            self.cost.crypto_miss,
            self.cost.trap,
        ] {
            put_u64(&mut out, value);
        }
        put_u64(&mut out, self.stats.cycles);
        put_u64(&mut out, self.stats.instret);
        for count in self.stats.class_counts {
            put_u64(&mut out, count);
        }
        for value in [
            self.stats.encrypts,
            self.stats.decrypts,
            self.stats.integrity_failures,
            self.stats.exceptions,
            self.stats.timer_interrupts,
            self.stats.decode_hits,
            self.stats.decode_misses,
        ] {
            put_u64(&mut out, value);
        }
        put_opt_u64(&mut out, self.timer_interval);
        put_u64(&mut out, self.next_timer);
        match self.watchdog {
            None => out.push(0),
            Some((budget, consumed)) => {
                out.push(1);
                put_u64(&mut out, budget);
                put_u64(&mut out, consumed);
            }
        }
        put_u32(&mut out, self.fault_pending.len() as u32);
        for spec in &self.fault_pending {
            let FaultTrigger::AtInstret(when) = spec.trigger;
            put_u64(&mut out, when);
            put_fault_kind(&mut out, spec.kind);
        }
        put_u32(&mut out, self.fault_applied.len() as u32);
        for entry in &self.fault_applied {
            put_u64(&mut out, entry.instret);
            put_fault_kind(&mut out, entry.kind);
            out.push(match entry.effect {
                FaultEffect::Injected => 0,
                FaultEffect::SkippedUnmapped => 1,
                FaultEffect::SkippedNoTarget => 2,
            });
        }
        put_u64(&mut out, self.digest);
        // Base digest: always absent, since a full snapshot has no base.
        put_opt_u64(&mut out, None);
        put_u32(&mut out, self.pages.len() as u32);
        for (no, gen, data) in &self.pages {
            put_u64(&mut out, *no);
            put_u64(&mut out, *gen);
            out.extend_from_slice(&data[..]);
        }
        let checksum = fnv64(&out);
        put_u64(&mut out, checksum);
        out
    }

    /// Decodes a snapshot, verifying magic, version, and checksum before
    /// trusting any field.
    ///
    /// # Errors
    ///
    /// See [`SnapshotError`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        if bytes.len() < MAGIC.len() + 2 + 8 {
            return Err(SnapshotError::Truncated);
        }
        if bytes[..4] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != 1 && version != VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let (payload, tail) = bytes.split_at(bytes.len() - 8);
        let found = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        let expected = fnv64(payload);
        if expected != found {
            return Err(SnapshotError::BadChecksum { expected, found });
        }
        let mut r = Reader::new(&payload[6..]);
        if r.u8()? != 0 {
            return Err(SnapshotError::BadEncoding("snapshot kind"));
        }
        let reference_datapath = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(SnapshotError::BadEncoding("datapath flag")),
        };
        let seed = r.u64()?;
        let mut regs = [0u64; 32];
        for reg in &mut regs {
            *reg = r.u64()?;
        }
        let pc = r.u64()?;
        let privilege = match r.u8()? {
            0 => Privilege::User,
            1 => Privilege::Kernel,
            _ => return Err(SnapshotError::BadEncoding("privilege")),
        };
        let csr_count = r.u32()? as usize;
        let mut csrs = Vec::with_capacity(csr_count.min(4096));
        for _ in 0..csr_count {
            csrs.push((r.u16()?, r.u64()?));
        }
        let mut keys = [(0u64, 0u64); 8];
        for key in &mut keys {
            *key = (r.u64()?, r.u64()?);
        }
        let mut epochs = [0u64; 8];
        let mut nonce_ctr = 0u64;
        let mut epoch_rekey = false;
        if version >= 2 {
            for epoch in &mut epochs {
                *epoch = r.u64()?;
            }
            nonce_ctr = r.u64()?;
            epoch_rekey = match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(SnapshotError::BadEncoding("epoch-rekey flag")),
            };
        }
        let clb_capacity = r.u32()? as usize;
        let clb_stats = ClbStats {
            hits: r.u64()?,
            misses: r.u64()?,
            evictions: r.u64()?,
            invalidations: r.u64()?,
        };
        let entry_count = r.u32()? as usize;
        let mut clb_entries = Vec::with_capacity(entry_count.min(4096));
        for _ in 0..entry_count {
            clb_entries.push((r.u8()?, r.u64()?, r.u64()?, r.u64()?));
        }
        let cost = CostModel {
            alu: r.u64()?,
            branch_not_taken: r.u64()?,
            branch_taken: r.u64()?,
            load: r.u64()?,
            store: r.u64()?,
            mul: r.u64()?,
            div: r.u64()?,
            crypto_hit: r.u64()?,
            crypto_miss: r.u64()?,
            trap: r.u64()?,
        };
        let cycles = r.u64()?;
        let instret = r.u64()?;
        let mut class_counts = [0u64; InsnClass::ALL.len()];
        for count in &mut class_counts {
            *count = r.u64()?;
        }
        let stats = Stats {
            cycles,
            instret,
            class_counts,
            encrypts: r.u64()?,
            decrypts: r.u64()?,
            integrity_failures: r.u64()?,
            exceptions: r.u64()?,
            timer_interrupts: r.u64()?,
            decode_hits: r.u64()?,
            decode_misses: r.u64()?,
        };
        let timer_interval = r.opt_u64()?;
        let next_timer = r.u64()?;
        let watchdog = match r.u8()? {
            0 => None,
            1 => Some((r.u64()?, r.u64()?)),
            _ => return Err(SnapshotError::BadEncoding("watchdog flag")),
        };
        let pending_count = r.u32()? as usize;
        let mut fault_pending = Vec::with_capacity(pending_count.min(4096));
        for _ in 0..pending_count {
            let when = r.u64()?;
            fault_pending.push(FaultSpec {
                trigger: FaultTrigger::AtInstret(when),
                kind: r.fault_kind()?,
            });
        }
        let applied_count = r.u32()? as usize;
        let mut fault_applied = Vec::with_capacity(applied_count.min(4096));
        for _ in 0..applied_count {
            let instret = r.u64()?;
            let kind = r.fault_kind()?;
            let effect = match r.u8()? {
                0 => FaultEffect::Injected,
                1 => FaultEffect::SkippedUnmapped,
                2 => FaultEffect::SkippedNoTarget,
                _ => return Err(SnapshotError::BadEncoding("fault effect")),
            };
            fault_applied.push(AppliedFault {
                instret,
                kind,
                effect,
            });
        }
        let digest = r.u64()?;
        if r.opt_u64()?.is_some() {
            return Err(SnapshotError::BadEncoding("base digest"));
        }
        let page_count = r.u32()? as usize;
        let mut pages = Vec::with_capacity(page_count.min(65536));
        for _ in 0..page_count {
            let no = r.u64()?;
            let gen = r.u64()?;
            let data = r.bytes(PAGE_BYTES)?;
            let page: PageData = data
                .try_into()
                .map_err(|_| SnapshotError::BadEncoding("page size"))?;
            pages.push((no, gen, Arc::new(page)));
        }
        if !r.is_empty() {
            return Err(SnapshotError::BadEncoding("trailing bytes"));
        }
        Ok(Snapshot {
            reference_datapath,
            seed,
            regs,
            pc,
            privilege,
            csrs,
            keys,
            epochs,
            nonce_ctr,
            epoch_rekey,
            clb_capacity,
            clb_entries,
            clb_stats,
            cost,
            stats,
            timer_interval,
            next_timer,
            watchdog,
            fault_pending,
            fault_applied,
            digest,
            pages,
        })
    }
}

fn put_u16(out: &mut Vec<u8>, value: u16) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_opt_u64(out: &mut Vec<u8>, value: Option<u64>) {
    match value {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_u64(out, v);
        }
    }
}

pub(crate) fn put_fault_kind(out: &mut Vec<u8>, kind: FaultKind) {
    // Uniform encoding: tag byte + three u64 operand slots.
    let (tag, f0, f1, f2) = match kind {
        FaultKind::MemBitFlip { addr, bit } => (0u8, addr, u64::from(bit), 0),
        FaultKind::MemWrite { addr, value } => (1, addr, value, 0),
        FaultKind::MemSwap { a, b } => (2, a, b, 0),
        FaultKind::KeyTamper {
            ksel,
            xor_w0,
            xor_k0,
        } => (3, u64::from(ksel), xor_w0, xor_k0),
        FaultKind::ClbPoison { xor } => (4, xor, 0, 0),
    };
    out.push(tag);
    put_u64(out, f0);
    put_u64(out, f1);
    put_u64(out, f2);
}

/// Bounds-checked little-endian reader over a snapshot payload.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.at == self.bytes.len()
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.at.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.bytes[self.at..end];
        self.at = end;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.bytes(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().expect("2")))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8")))
    }

    pub(crate) fn opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(SnapshotError::BadEncoding("option flag")),
        }
    }

    pub(crate) fn fault_kind(&mut self) -> Result<FaultKind, SnapshotError> {
        let tag = self.u8()?;
        let f0 = self.u64()?;
        let f1 = self.u64()?;
        let f2 = self.u64()?;
        Ok(match tag {
            0 => FaultKind::MemBitFlip {
                addr: f0,
                bit: (f1 % 64) as u8,
            },
            1 => FaultKind::MemWrite {
                addr: f0,
                value: f1,
            },
            2 => FaultKind::MemSwap { a: f0, b: f1 },
            3 => FaultKind::KeyTamper {
                ksel: (f0 % 256) as u8,
                xor_w0: f1,
                xor_k0: f2,
            },
            4 => FaultKind::ClbPoison { xor: f0 },
            _ => return Err(SnapshotError::BadEncoding("fault kind")),
        })
    }
}

impl Machine {
    /// Captures a full snapshot of the machine's state.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let keys = self.engine.key_file().raw_keys();
        let (epochs, nonce_ctr) = self.engine.epoch_state();
        let clb = self.engine.clb();
        // Capture shares the machine's pages (Arc clone, no copy); the
        // machine's next write to any page copies it out from under us.
        let pages = self
            .mem
            .page_entries()
            .iter()
            .map(|&(no, gen, data)| (no, gen, Arc::clone(data)))
            .collect();
        Snapshot {
            reference_datapath: self.engine.is_reference(),
            seed: self.seed,
            regs: self.hart.regs(),
            pc: self.hart.pc(),
            privilege: self.hart.privilege(),
            csrs: self.hart.csr_entries().collect(),
            keys: keys.map(|k| (k.w0(), k.k0())),
            epochs,
            nonce_ctr,
            epoch_rekey: self.epoch_rekey,
            clb_capacity: clb.capacity(),
            clb_entries: clb.entries_lru_to_mru(),
            clb_stats: clb.stats(),
            cost: self.cost,
            stats: self.stats.clone(),
            timer_interval: self.timer_interval,
            next_timer: self.next_timer,
            watchdog: self.watchdog.map(|dog| (dog.budget(), dog.consumed())),
            fault_pending: self
                .fault_plan
                .as_ref()
                .map(|plan| plan.specs().to_vec())
                .unwrap_or_default(),
            fault_applied: self
                .fault_plan
                .as_ref()
                .map(|plan| plan.applied().to_vec())
                .unwrap_or_default(),
            digest: self.arch_digest(),
            pages,
        }
    }

    /// Restores the machine to `snapshot`'s state, replacing everything:
    /// hart, memory, crypto engine (keys + CLB contents + datapath
    /// flavour), statistics, timer, watchdog, and fault plan. The decode
    /// cache is cleared (it is derived state; page write generations are
    /// restored so its lazy invalidation stays sound).
    pub fn restore(&mut self, snapshot: &Snapshot) {
        self.seed = snapshot.seed;
        self.hart.restore(
            snapshot.regs,
            snapshot.pc,
            snapshot.privilege,
            &snapshot.csrs,
        );
        self.mem.clear();
        for (no, gen, data) in &snapshot.pages {
            self.mem.restore_page(*no, *gen, Arc::clone(data));
        }
        self.icache = crate::icache::DecodeCache::new();
        // The superblock tier is derived state too: drop its traces and
        // profile. Page generations are restored above, so even a kept
        // trace would be validated correctly — clearing is belt and braces
        // plus counter hygiene.
        self.sb = crate::superblock::SuperblockCache::default();
        self.sb_boundary = true;
        let rebuild = self.engine.is_reference() != snapshot.reference_datapath
            || self.engine.clb().capacity() != snapshot.clb_capacity;
        if rebuild {
            self.engine = if snapshot.reference_datapath {
                CryptoEngine::new_reference(snapshot.clb_capacity, snapshot.seed)
            } else {
                CryptoEngine::new(snapshot.clb_capacity, snapshot.seed)
            };
        }
        let keys = snapshot.keys.map(|(w0, k0)| Key::new(w0, k0));
        self.engine.key_file_mut().set_raw_keys(keys);
        self.engine
            .set_epoch_state(snapshot.epochs, snapshot.nonce_ctr);
        self.epoch_rekey = snapshot.epoch_rekey;
        // The snapshot carries `Stats` and `ClbStats`; every other counter
        // (the engine's tallies, the superblock tier's) restarts at zero.
        self.engine.reset_stats();
        self.engine
            .clb_mut()
            .restore_entries(&snapshot.clb_entries, snapshot.clb_stats);
        self.cost = snapshot.cost;
        self.stats = snapshot.stats.clone();
        self.timer_interval = snapshot.timer_interval;
        self.next_timer = snapshot.next_timer;
        self.watchdog = snapshot
            .watchdog
            .map(|(budget, consumed)| Watchdog::from_parts(budget, consumed));
        self.fault_plan = if snapshot.fault_pending.is_empty() && snapshot.fault_applied.is_empty()
        {
            None
        } else {
            Some(FaultPlan::from_parts(
                snapshot.fault_pending.clone(),
                snapshot.fault_applied.clone(),
            ))
        };
    }

    /// Forks a machine from a warm snapshot, SnapStart-style.
    ///
    /// The fork *shares* every memory page with the snapshot (and with
    /// every other fork of it): materialization cost is O(mapped pages)
    /// pointer clones plus the fixed-size architectural state — no page
    /// contents are copied. The first write a fork makes to any page
    /// copies exactly that page (copy-on-write), so a fleet of N forks
    /// pays only for the pages it actually dirties. `Machine` is `Send`,
    /// so forks can be handed straight to worker threads.
    ///
    /// # Errors
    ///
    /// None: every snapshot that decodes restores. The `Result` stays in
    /// the signature the fleet and the benchmark harness match on.
    pub fn fork_from(snapshot: &Snapshot) -> Result<Machine, SnapshotError> {
        let mut machine = Machine::new(crate::machine::MachineConfig {
            clb_entries: snapshot.clb_capacity,
            cost: snapshot.cost,
            seed: snapshot.seed,
            timer_interval: snapshot.timer_interval,
            reference_datapath: snapshot.reference_datapath,
            epoch_rekey: snapshot.epoch_rekey,
            ..crate::machine::MachineConfig::default()
        });
        machine.restore(snapshot);
        Ok(machine)
    }

    /// Number of this machine's pages whose contents have diverged from
    /// (are no longer physically shared with) `base` — the copy-on-write
    /// dirty-page count a fork has accumulated since [`Machine::fork_from`].
    ///
    /// Pages the machine mapped that the base never had count as dirty;
    /// base pages the machine still shares count as clean.
    #[must_use]
    pub fn cow_dirty_pages(&self, base: &Snapshot) -> usize {
        let entries = self.mem.page_entries();
        entries
            .iter()
            .filter(
                |&&(no, _, data)| match base.pages.binary_search_by_key(&no, |p| p.0) {
                    Ok(i) => !Arc::ptr_eq(&base.pages[i].2, data),
                    Err(_) => true,
                },
            )
            .count()
    }

    /// Digest of the machine's architectural state: registers, pc,
    /// privilege, CSRs, key registers, CLB entries and statistics, memory
    /// contents, and the architectural counters (cycles, instret, per-class
    /// retirements, crypto/exception/timer counts).
    ///
    /// Deliberately excluded: decode-cache hit/miss counters and page write
    /// generations (microarchitectural), the watchdog and fault plan
    /// (harness state). Two machines that executed the same architectural
    /// history digest identically even when one runs the reference datapath
    /// — which is precisely what the lockstep executor checks.
    #[must_use]
    pub fn arch_digest(&self) -> u64 {
        let mut h = Fnv::new();
        for reg in self.hart.regs() {
            h.write_u64(reg);
        }
        h.write_u64(self.hart.pc());
        h.write(&[match self.hart.privilege() {
            Privilege::User => 0,
            Privilege::Kernel => 1,
        }]);
        for (addr, value) in self.hart.csr_entries() {
            h.write(&addr.to_le_bytes());
            h.write_u64(value);
        }
        for key in self.engine.key_file().raw_keys() {
            h.write_u64(key.w0());
            h.write_u64(key.k0());
        }
        // Rekey epochs are architectural: they change which effective tweak
        // every subsequent cre/crd uses, so two machines can only claim the
        // same history if their epoch state agrees. Always-zero on machines
        // without the mitigation, so digests stay comparable there.
        let (epochs, nonce_ctr) = self.engine.epoch_state();
        for epoch in epochs {
            h.write_u64(epoch);
        }
        h.write_u64(nonce_ctr);
        for (ksel, tweak, pt, ct) in self.engine.clb().entries_lru_to_mru() {
            h.write(&[ksel]);
            h.write_u64(tweak);
            h.write_u64(pt);
            h.write_u64(ct);
        }
        let clb_stats = self.engine.clb().stats();
        for value in [
            clb_stats.hits,
            clb_stats.misses,
            clb_stats.evictions,
            clb_stats.invalidations,
        ] {
            h.write_u64(value);
        }
        for (no, _gen, data) in self.mem.page_entries() {
            h.write_u64(no);
            h.write(&data[..]);
        }
        h.write_u64(self.stats.cycles);
        h.write_u64(self.stats.instret);
        for count in self.stats.class_counts {
            h.write_u64(count);
        }
        for value in [
            self.stats.encrypts,
            self.stats.decrypts,
            self.stats.integrity_failures,
            self.stats.exceptions,
            self.stats.timer_interrupts,
        ] {
            h.write_u64(value);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use regvault_isa::KeyReg;

    fn busy_machine() -> Machine {
        let mut machine = Machine::new(MachineConfig::default());
        let program = regvault_isa::asm::assemble(
            "li   t1, 0x9000
             li   s0, 0x9000
             li   a0, 0xbeef
             creak a0, a0[3:0], t1
             sd   a0, 0(s0)
             ld   a1, 0(s0)
             crdak a1, a1, t1, [3:0]
             ebreak",
        )
        .unwrap();
        machine.load_program(0x8000_0000, program.bytes());
        machine.write_key_register(KeyReg::A, 0xAA, 0xBB).unwrap();
        machine.hart_mut().set_pc(0x8000_0000);
        machine.run_until_break(1_000).unwrap();
        machine
    }

    #[test]
    fn snapshot_bytes_round_trip() {
        let machine = busy_machine();
        let snap = machine.snapshot();
        let decoded = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(snap, decoded);
    }

    #[test]
    fn restore_reproduces_arch_digest() {
        let machine = busy_machine();
        let snap = machine.snapshot();
        let restored = Machine::fork_from(&snap).unwrap();
        assert_eq!(machine.arch_digest(), restored.arch_digest());
        assert_eq!(machine.stats(), restored.stats());
    }

    #[test]
    fn corrupted_byte_is_rejected() {
        let bytes = busy_machine().snapshot().to_bytes();
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::BadChecksum { .. })
        ));
    }

    #[test]
    fn truncation_magic_and_version_are_rejected() {
        let bytes = busy_machine().snapshot().to_bytes();
        // A cut tail shifts the checksum window: rejected as corruption.
        assert!(matches!(
            Snapshot::from_bytes(&bytes[..bytes.len() - 3]),
            Err(SnapshotError::BadChecksum { .. })
        ));
        assert_eq!(
            Snapshot::from_bytes(&bytes[..10]),
            Err(SnapshotError::Truncated)
        );
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            Snapshot::from_bytes(&bad_magic),
            Err(SnapshotError::BadMagic)
        );
        let mut bad_version = bytes.clone();
        bad_version[4] = 0x7F;
        assert!(matches!(
            Snapshot::from_bytes(&bad_version),
            Err(SnapshotError::BadVersion(_))
        ));
    }

    #[test]
    fn epoch_state_round_trips_through_snapshots() {
        let mut machine = Machine::new(MachineConfig {
            epoch_rekey: true,
            ..MachineConfig::default()
        });
        machine.write_key_register(KeyReg::C, 0x1, 0x2).unwrap();
        let e1 = machine.issue_key_epoch(KeyReg::C);
        machine.issue_key_epoch(KeyReg::D);
        machine.set_key_epoch(KeyReg::C, e1);
        let snap = machine.snapshot();
        let decoded = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(snap, decoded);
        let restored = Machine::fork_from(&decoded).unwrap();
        assert!(restored.epoch_rekey());
        assert_eq!(
            restored.engine().epoch(KeyReg::C),
            machine.engine().epoch(KeyReg::C)
        );
        assert_eq!(machine.arch_digest(), restored.arch_digest());
        // Epochs are architectural: advancing one changes the digest.
        let before = machine.arch_digest();
        machine.issue_key_epoch(KeyReg::C);
        assert_ne!(machine.arch_digest(), before);
    }

    #[test]
    fn version_1_streams_decode_with_zero_epochs() {
        let machine = busy_machine();
        let snap = machine.snapshot();
        let bytes = snap.to_bytes();
        // Splice the epoch block (8 epochs + nonce counter + knob byte =
        // 73 bytes, located right after the 128-byte key block) out of the
        // v2 stream, patch the version to 1, and re-checksum — yielding
        // exactly what a v1 build would have written.
        let csr_count_at = 6 + 1 + 1 + 8 + 32 * 8 + 8 + 1;
        let csr_count =
            u32::from_le_bytes(bytes[csr_count_at..csr_count_at + 4].try_into().unwrap()) as usize;
        let epochs_at = csr_count_at + 4 + csr_count * 10 + 128;
        let mut v1: Vec<u8> = Vec::new();
        v1.extend_from_slice(&bytes[..epochs_at]);
        v1.extend_from_slice(&bytes[epochs_at + 73..bytes.len() - 8]);
        v1[4] = 1;
        v1[5] = 0;
        let checksum = fnv64(&v1);
        v1.extend_from_slice(&checksum.to_le_bytes());
        let decoded = Snapshot::from_bytes(&v1).unwrap();
        assert_eq!(decoded.epochs, [0; 8]);
        assert_eq!(decoded.nonce_ctr, 0);
        assert!(!decoded.epoch_rekey);
        assert_eq!(decoded.regs, snap.regs);
        assert_eq!(decoded.pages.len(), snap.pages.len());
    }

    #[test]
    fn changed_words_sees_exactly_the_stores() {
        let mut machine = busy_machine();
        let base = machine.snapshot();
        machine.memory_mut().write_u64(0x9100, 0xAAAA).unwrap();
        machine.memory_mut().write_u64(0xA008, 0xBBBB).unwrap();
        let after = machine.snapshot();
        let diff = after.changed_words(&base);
        assert!(diff.contains(&(0x9100, 0xAAAA)));
        assert!(diff.contains(&(0xA008, 0xBBBB)));
        // Nothing else on the 0x9000 page changed.
        assert_eq!(
            diff.iter()
                .filter(|(a, _)| (0x9000..0xA000).contains(a))
                .count(),
            1
        );
        assert!(after.changed_words(&after).is_empty());
    }
}
