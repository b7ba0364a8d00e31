//! The SPARC Translation Storage Buffer baseline (§3.3, §4.1).
//!
//! The TSB is the closest existing system feature to the POM-TLB: a very
//! large translation buffer held in ordinary DRAM. The paper credits its
//! comparatively poor showing (4.27 % mean improvement vs POM-TLB's 9.57 %)
//! to three structural properties, all modeled here:
//!
//! 1. **software management** — every L2 TLB miss raises an OS trap before
//!    the TSB can even be indexed;
//! 2. **direct-mapped organization** — one candidate entry per index, so
//!    conflict misses are frequent (POM-TLB is 4-way within a single burst);
//! 3. **per-dimension entries** — TSB entries are not direct gVA→hPA
//!    translations, so a virtualized lookup needs one access for the guest
//!    dimension and one for the host dimension.
//!
//! TSB lines are ordinary cacheable kernel memory, so the handler's loads
//! probe the L2/L3 data caches before DRAM — the paper's criticisms are the
//! trap, the per-dimension double access, and the direct-mapped conflicts,
//! not uncachedness.

use pomtlb_cache::Hierarchy;
use pomtlb_dram::Channel;
use pomtlb_types::bits::mask_through;
use pomtlb_types::{AddressSpace, CoreId, Cycles, Field, Gva, Hpa, PageSize, VmId, Vpn};
use serde::{Deserialize, Serialize};

/// TSB configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TsbConfig {
    /// Total capacity in bytes (paper: 16 MB, same as the POM-TLB).
    pub capacity_bytes: u64,
    /// Bytes per TSB entry (16, as in the POM-TLB entry format).
    pub entry_bytes: u64,
    /// Cycles to enter and leave the OS trap handler on an L2 TLB miss.
    pub trap_cycles: Cycles,
    /// Base host-physical address of the buffer.
    pub base: Hpa,
}

impl Default for TsbConfig {
    fn default() -> Self {
        TsbConfig {
            capacity_bytes: 16 << 20,
            entry_bytes: 16,
            // SPARC spill/fill-style trap entry + handler prologue/epilogue.
            trap_cycles: Cycles::new(40),
            base: Hpa::new(0x70_0000_0000),
        }
    }
}

/// Result of a TSB translation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TsbOutcome {
    /// The translation, if both dimensions hit.
    pub page_base: Option<Hpa>,
    /// The page size of the hit (valid when `page_base` is `Some`).
    pub size: PageSize,
    /// Cycles spent in the trap handler and TSB probes. On a miss the
    /// caller adds the software page-walk cost on top.
    pub latency: Cycles,
    /// DRAM accesses performed (1 per dimension probed).
    pub accesses: u32,
}

// One TSB slot is a 16-byte word; all-zero is an empty slot.
//
// bits   0..36   key: a guest VPN, or a host-dimension gPA page number
// bit   36       dimension (0 = guest, 1 = host)
// bits  37..53   process ID
// bits  53..69   VM ID
// bit   69       valid
// bits  70..106  target base >> 12 (a gPA or hPA 4 KB frame number)
// bits 106..108  page size (0 = 4 KB, 1 = 2 MB, 2 = 1 GB)
const KEY: Field = Field::first(36);
const HOST_DIM: Field = Field::after(KEY, 1);
const PID: Field = Field::after(HOST_DIM, 16);
const VM: Field = Field::after(PID, 16);
const VALID: Field = Field::after(VM, 1);
const TARGET: Field = Field::after(VALID, 36);
const SIZE: Field = Field::after(TARGET, 2);
/// Everything a probe compares: valid, VM, process, dimension and key.
const KEY_MASK: u128 = mask_through(VALID);

/// Which of a virtualized translation's two dimensions a slot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dim {
    /// gVA page → gPA base.
    Guest,
    /// gPA page → hPA base.
    Host,
}

/// The probe key of `(space, dim, vpn)`.
///
/// # Panics
///
/// Panics if `vpn` exceeds 36 bits.
fn probe_key(space: AddressSpace, dim: Dim, vpn: u64) -> u128 {
    assert!(KEY.fits(vpn), "TSB page number {vpn:#x} exceeds 36 bits");
    VALID.place(1)
        | VM.place(space.vm.as_u64())
        | PID.place(space.process.as_u64())
        | HOST_DIM.place((dim == Dim::Host) as u64)
        | KEY.place(vpn)
}

/// The target base address a slot maps to, and its page size.
fn target_of(word: u128) -> (u64, PageSize) {
    let size = match SIZE.get(word) {
        0 => PageSize::Small4K,
        1 => PageSize::Large2M,
        _ => PageSize::Huge1G,
    };
    (TARGET.get(word) << 12, size)
}

/// A direct-mapped, software-managed translation storage buffer in DRAM.
///
/// The guest dimension (gVA→gPA) and host dimension (gPA→hPA) share the
/// buffer, each hashed with a dimension salt, mirroring how SPARC kernels
/// keep separate TSBs per context in one memory pool.
///
/// Slots are packed 16-byte words (layout above), allocated zeroed so the
/// pages of slots no fill has reached are never touched.
#[derive(Debug, Clone)]
pub struct Tsb {
    config: TsbConfig,
    slots: Vec<u128>,
    hits: u64,
    misses: u64,
    conflicts: u64,
}

const GUEST_SALT: u64 = 0x9e37_79b9_7f4a_7c15;
const HOST_SALT: u64 = 0xc2b2_ae3d_27d4_eb4f;

impl Tsb {
    /// Builds an empty TSB.
    ///
    /// # Panics
    ///
    /// Panics if the slot count is not a power of two.
    pub fn new(config: TsbConfig) -> Tsb {
        let slots = config.capacity_bytes / config.entry_bytes;
        assert!(slots.is_power_of_two(), "TSB slot count must be a power of two");
        Tsb { config, slots: vec![0; slots as usize], hits: 0, misses: 0, conflicts: 0 }
    }

    /// The configuration.
    pub fn config(&self) -> &TsbConfig {
        &self.config
    }

    /// Bytes of slot storage the buffer allocates: 16 per slot.
    pub fn storage_bytes(&self) -> u64 {
        (self.slots.len() * std::mem::size_of::<u128>()) as u64
    }

    /// The slot `(space, dim, vpn)` maps to. The host dimension hashes the
    /// salted page number `vpn ^ HOST_SALT`, whose high bits keep it apart
    /// from every guest VPN; the slot stores the unsalted number and a
    /// dimension bit instead, which separates the two the same way.
    fn index(&self, space: AddressSpace, dim: Dim, vpn: u64) -> usize {
        let (key, salt) = match dim {
            Dim::Guest => (vpn, GUEST_SALT),
            Dim::Host => (vpn ^ HOST_SALT, HOST_SALT),
        };
        let h = (key ^ space.vm.as_u64().rotate_left(24) ^ space.process.as_u64().rotate_left(40))
            .wrapping_mul(salt);
        // `h % len`: `Tsb::new` asserts a power-of-two slot count.
        (h & (self.slots.len() as u64 - 1)) as usize
    }

    fn slot_addr(&self, index: usize) -> Hpa {
        Hpa::new(self.config.base.raw() + index as u64 * self.config.entry_bytes)
    }

    /// Attempts a full virtualized translation of `gva`: trap, then a
    /// guest-dimension probe, then (on a guest hit) a host-dimension probe.
    /// Each probe is an ordinary cacheable load from `core`: L2D$ → L3D$ →
    /// DRAM, starting at `now`.
    #[allow(clippy::too_many_arguments)]
    pub fn translate(
        &mut self,
        core: CoreId,
        space: AddressSpace,
        gva: Gva,
        size_hint: PageSize,
        hier: &mut Hierarchy,
        dram: &mut Channel,
        now: Cycles,
    ) -> TsbOutcome {
        let mut latency = self.config.trap_cycles;
        let mut accesses = 0u32;

        // Guest dimension: gVA -> gPA.
        let gvpn = Vpn::of(gva, size_hint).0;
        let gidx = self.index(space, Dim::Guest, gvpn);
        latency += self.load(core, self.slot_addr(gidx), hier, dram, now + latency);
        accesses += 1;
        let guest_hit = self.probe(gidx, probe_key(space, Dim::Guest, gvpn));
        let Some((gpa_base, size)) = guest_hit else {
            self.misses += 1;
            return TsbOutcome { page_base: None, size: size_hint, latency, accesses };
        };

        // Host dimension: gPA -> hPA.
        let hvpn = gpa_base >> size.shift();
        let hidx = self.index(space, Dim::Host, hvpn);
        latency += self.load(core, self.slot_addr(hidx), hier, dram, now + latency);
        accesses += 1;
        match self.probe(hidx, probe_key(space, Dim::Host, hvpn)) {
            Some((hpa_base, _)) => {
                self.hits += 1;
                TsbOutcome { page_base: Some(Hpa::new(hpa_base)), size, latency, accesses }
            }
            None => {
                self.misses += 1;
                TsbOutcome { page_base: None, size, latency, accesses }
            }
        }
    }

    /// One cacheable TSB load: L2D$ → L3D$ → DRAM.
    fn load(
        &self,
        core: CoreId,
        addr: Hpa,
        hier: &mut Hierarchy,
        dram: &mut Channel,
        now: Cycles,
    ) -> Cycles {
        let probe = hier.access_tlb_line(core, addr, false);
        if probe.hit() {
            probe.latency
        } else {
            probe.latency + dram.access(addr, now + probe.latency).latency
        }
    }

    fn probe(&self, index: usize, key: u128) -> Option<(u64, PageSize)> {
        let word = self.slots[index];
        (word & KEY_MASK == key).then(|| target_of(word))
    }

    /// Writes `(key → target, size)` into slot `index`, counting a conflict
    /// if it displaces a live entry for a different page.
    fn install(&mut self, index: usize, key: u128, target: u64, size: PageSize) {
        assert!(
            target & 0xfff == 0 && TARGET.fits(target >> 12),
            "TSB target {target:#x} is not a 4 KB frame below 2^48"
        );
        let old = self.slots[index];
        if old & VALID.mask() != 0 && old & KEY_MASK != key {
            self.conflicts += 1;
        }
        let size_code = match size {
            PageSize::Small4K => 0,
            PageSize::Large2M => 1,
            PageSize::Huge1G => 2,
        };
        self.slots[index] = key | TARGET.place(target >> 12) | SIZE.place(size_code);
    }

    /// Installs both dimensions of a resolved translation (the OS handler
    /// refills the TSB after a software walk).
    ///
    /// # Panics
    ///
    /// Panics if a page number exceeds 36 bits or a base address is not a
    /// 4 KB frame below 2^48.
    pub fn fill(
        &mut self,
        space: AddressSpace,
        gva: Gva,
        size: PageSize,
        gpa_base: u64,
        hpa_base: Hpa,
    ) {
        let gvpn = Vpn::of(gva, size).0;
        let gidx = self.index(space, Dim::Guest, gvpn);
        self.install(gidx, probe_key(space, Dim::Guest, gvpn), gpa_base, size);

        let hvpn = gpa_base >> size.shift();
        let hidx = self.index(space, Dim::Host, hvpn);
        self.install(hidx, probe_key(space, Dim::Host, hvpn), hpa_base.raw(), size);
    }

    /// Shootdown of one translation. Returns whether the guest-dimension
    /// entry was present.
    pub fn invalidate(&mut self, space: AddressSpace, gva: Gva, size: PageSize) -> bool {
        let gvpn = Vpn::of(gva, size).0;
        let gidx = self.index(space, Dim::Guest, gvpn);
        if self.slots[gidx] & KEY_MASK == probe_key(space, Dim::Guest, gvpn) {
            self.slots[gidx] = 0;
            true
        } else {
            false
        }
    }

    /// Flushes every slot belonging to a VM (VM teardown), in both the
    /// guest and host dimensions. Returns the number of slots dropped.
    pub fn flush_vm(&mut self, vm: VmId) -> u64 {
        let mask = VALID.mask() | VM.mask();
        let owned = VALID.place(1) | VM.place(vm.as_u64());
        let mut dropped = 0;
        for slot in &mut self.slots {
            if *slot & mask == owned {
                *slot = 0;
                dropped += 1;
            }
        }
        dropped
    }

    /// Completed translations (both dimensions hit).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Failed translations.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Fills that displaced a live entry for a different page.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomtlb_cache::HierarchyConfig;
    use pomtlb_dram::DramTiming;
    use pomtlb_types::{ProcessId, VmId};

    fn small_tsb() -> Tsb {
        Tsb::new(TsbConfig { capacity_bytes: 1 << 10, ..Default::default() }) // 64 slots
    }

    fn dram() -> Channel {
        Channel::new(DramTiming::die_stacked(4.0), 8)
    }

    fn hier() -> Hierarchy {
        Hierarchy::new(HierarchyConfig::default(), 1)
    }

    fn space() -> AddressSpace {
        AddressSpace::new(VmId(0), ProcessId(0))
    }

    #[test]
    fn miss_costs_trap_plus_one_access() {
        let mut tsb = small_tsb();
        let mut d = dram();
        let mut h = hier();
        let out = tsb.translate(CoreId(0), space(), Gva::new(0x1000), PageSize::Small4K, &mut h, &mut d, Cycles::ZERO);
        assert!(out.page_base.is_none());
        assert_eq!(out.accesses, 1, "guest-dimension probe only");
        assert!(out.latency >= tsb.config().trap_cycles);
        assert_eq!(tsb.misses(), 1);
    }

    #[test]
    fn fill_then_hit_needs_two_accesses() {
        let mut tsb = small_tsb();
        let mut d = dram();
        let mut h = hier();
        let gva = Gva::new(0x1000);
        tsb.fill(space(), gva, PageSize::Small4K, 0x40_0000, Hpa::new(0x9_0000));
        let out = tsb.translate(CoreId(0), space(), gva, PageSize::Small4K, &mut h, &mut d, Cycles::ZERO);
        assert_eq!(out.page_base, Some(Hpa::new(0x9_0000)));
        assert_eq!(out.accesses, 2, "guest + host dimension probes");
        assert_eq!(tsb.hits(), 1);
    }

    #[test]
    fn trap_overhead_always_charged() {
        let mut tsb = small_tsb();
        let mut d = dram();
        let mut h = hier();
        let gva = Gva::new(0x1000);
        tsb.fill(space(), gva, PageSize::Small4K, 0x40_0000, Hpa::new(0x9_0000));
        let out = tsb.translate(CoreId(0), space(), gva, PageSize::Small4K, &mut h, &mut d, Cycles::ZERO);
        assert!(out.latency >= tsb.config().trap_cycles + Cycles::new(2 * 12));
    }

    #[test]
    fn direct_mapping_conflicts() {
        let mut tsb = small_tsb();
        // Fill far more translations than slots: conflicts must occur.
        for i in 0..256u64 {
            tsb.fill(
                space(),
                Gva::new(i << 12),
                PageSize::Small4K,
                0x40_0000 + (i << 12),
                Hpa::new(0x100_0000 + (i << 12)),
            );
        }
        assert!(tsb.conflicts() > 0, "direct-mapped TSB must conflict");
    }

    #[test]
    fn invalidate_breaks_translation() {
        let mut tsb = small_tsb();
        let mut d = dram();
        let mut h = hier();
        let gva = Gva::new(0x1000);
        tsb.fill(space(), gva, PageSize::Small4K, 0x40_0000, Hpa::new(0x9_0000));
        assert!(tsb.invalidate(space(), gva, PageSize::Small4K));
        let out = tsb.translate(CoreId(0), space(), gva, PageSize::Small4K, &mut h, &mut d, Cycles::ZERO);
        assert!(out.page_base.is_none());
        assert!(!tsb.invalidate(space(), gva, PageSize::Small4K));
    }

    #[test]
    fn spaces_are_isolated() {
        let mut tsb = small_tsb();
        let mut d = dram();
        let mut h = hier();
        let other = AddressSpace::new(VmId(1), ProcessId(0));
        let gva = Gva::new(0x1000);
        tsb.fill(space(), gva, PageSize::Small4K, 0x40_0000, Hpa::new(0x9_0000));
        let out = tsb.translate(CoreId(0), other, gva, PageSize::Small4K, &mut h, &mut d, Cycles::ZERO);
        assert!(out.page_base.is_none());
    }

    #[test]
    fn large_page_translations() {
        let mut tsb = small_tsb();
        let mut d = dram();
        let mut h = hier();
        let gva = Gva::new(0x4000_0000);
        tsb.fill(space(), gva, PageSize::Large2M, 0x4000_0000, Hpa::new(0x8000_0000));
        let out = tsb.translate(CoreId(0), space(), gva, PageSize::Large2M, &mut h, &mut d, Cycles::ZERO);
        assert_eq!(out.page_base, Some(Hpa::new(0x8000_0000)));
        assert_eq!(out.size, PageSize::Large2M);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_odd_capacity() {
        Tsb::new(TsbConfig { capacity_bytes: 3000, ..Default::default() });
    }

    #[test]
    fn default_is_16mb() {
        let t = Tsb::new(TsbConfig::default());
        assert_eq!(t.config().capacity_bytes, 16 << 20);
        assert_eq!(t.slots.len(), (16 << 20) / 16);
        assert_eq!(t.storage_bytes(), 16 << 20, "one 16-byte word per slot");
    }

    #[test]
    fn high_vm_ids_do_not_alias() {
        let mut tsb = small_tsb();
        let mut d = dram();
        let mut h = hier();
        let gva = Gva::new(0x1000);
        let far = AddressSpace::new(VmId(4096), ProcessId(0));
        tsb.fill(space(), gva, PageSize::Small4K, 0x40_0000, Hpa::new(0x9_0000));
        let out = tsb.translate(CoreId(0), far, gva, PageSize::Small4K, &mut h, &mut d, Cycles::ZERO);
        assert!(out.page_base.is_none());
        assert_eq!(tsb.flush_vm(VmId(4096)), 0);
        assert_eq!(tsb.flush_vm(VmId(0)), 2, "both dimensions of VM 0's entry");
    }

    #[test]
    #[should_panic(expected = "not a 4 KB frame")]
    fn target_beyond_the_frame_field_is_rejected() {
        small_tsb().fill(space(), Gva::new(0x1000), PageSize::Small4K, 0x40_0000, Hpa::new(1 << 48));
    }

    /// The unpacked `Option<TsbEntry>` buffer the packed slots replaced,
    /// kept as an independent model of their behaviour: host-dimension
    /// keys are stored salted, as a full 64-bit value.
    struct RefTsb {
        config: TsbConfig,
        slots: Vec<Option<RefEntry>>,
        hits: u64,
        misses: u64,
        conflicts: u64,
    }

    #[derive(Clone, Copy)]
    struct RefEntry {
        space: AddressSpace,
        vpn: u64,
        target: u64,
        size: PageSize,
    }

    impl RefTsb {
        fn new(config: TsbConfig) -> RefTsb {
            let n = (config.capacity_bytes / config.entry_bytes) as usize;
            RefTsb { config, slots: vec![None; n], hits: 0, misses: 0, conflicts: 0 }
        }

        fn index(&self, space: AddressSpace, vpn: u64, salt: u64) -> usize {
            let h = (vpn ^ space.vm.as_u64().rotate_left(24) ^ space.process.as_u64().rotate_left(40))
                .wrapping_mul(salt);
            (h % self.slots.len() as u64) as usize
        }

        fn probe(&self, index: usize, space: AddressSpace, vpn: u64) -> Option<(u64, PageSize)> {
            self.slots[index]
                .filter(|e| e.space == space && e.vpn == vpn)
                .map(|e| (e.target, e.size))
        }

        #[allow(clippy::too_many_arguments)]
        fn translate(
            &mut self,
            core: CoreId,
            space: AddressSpace,
            gva: Gva,
            size_hint: PageSize,
            hier: &mut Hierarchy,
            dram: &mut Channel,
            now: Cycles,
        ) -> TsbOutcome {
            let load = |index: usize, hier: &mut Hierarchy, dram: &mut Channel, at: Cycles| {
                let addr = Hpa::new(self.config.base.raw() + index as u64 * self.config.entry_bytes);
                let probe = hier.access_tlb_line(core, addr, false);
                if probe.hit() {
                    probe.latency
                } else {
                    probe.latency + dram.access(addr, at + probe.latency).latency
                }
            };
            let mut latency = self.config.trap_cycles;
            let gvpn = Vpn::of(gva, size_hint).0;
            let gidx = self.index(space, gvpn, GUEST_SALT);
            latency += load(gidx, hier, dram, now + latency);
            let Some((gpa_base, size)) = self.probe(gidx, space, gvpn) else {
                self.misses += 1;
                return TsbOutcome { page_base: None, size: size_hint, latency, accesses: 1 };
            };
            let hkey = (gpa_base >> size.shift()) ^ HOST_SALT;
            let hidx = self.index(space, hkey, HOST_SALT);
            latency += load(hidx, hier, dram, now + latency);
            let page_base = self.probe(hidx, space, hkey).map(|(hpa, _)| Hpa::new(hpa));
            if page_base.is_some() {
                self.hits += 1;
            } else {
                self.misses += 1;
            }
            TsbOutcome { page_base, size, latency, accesses: 2 }
        }

        fn fill(&mut self, space: AddressSpace, gva: Gva, size: PageSize, gpa_base: u64, hpa_base: Hpa) {
            let gvpn = Vpn::of(gva, size).0;
            let hkey = (gpa_base >> size.shift()) ^ HOST_SALT;
            for (vpn, salt, target) in [(gvpn, GUEST_SALT, gpa_base), (hkey, HOST_SALT, hpa_base.raw())] {
                let idx = self.index(space, vpn, salt);
                if self.slots[idx].is_some_and(|e| !(e.space == space && e.vpn == vpn)) {
                    self.conflicts += 1;
                }
                self.slots[idx] = Some(RefEntry { space, vpn, target, size });
            }
        }

        fn invalidate(&mut self, space: AddressSpace, gva: Gva, size: PageSize) -> bool {
            let gvpn = Vpn::of(gva, size).0;
            let gidx = self.index(space, gvpn, GUEST_SALT);
            let hit = self.slots[gidx].is_some_and(|e| e.space == space && e.vpn == gvpn);
            if hit {
                self.slots[gidx] = None;
            }
            hit
        }

        fn flush_vm(&mut self, vm: VmId) -> u64 {
            let mut dropped = 0;
            for slot in &mut self.slots {
                if slot.is_some_and(|e| e.space.vm == vm) {
                    *slot = None;
                    dropped += 1;
                }
            }
            dropped
        }

        fn occupancy(&self) -> u64 {
            self.slots.iter().flatten().count() as u64
        }
    }

    /// Live slots, across both dimensions.
    fn occupancy(tsb: &Tsb) -> u64 {
        tsb.slots.iter().filter(|&&w| w & VALID.mask() != 0).count() as u64
    }

    /// Replays a seeded fill/translate/invalidate/flush script against the
    /// packed TSB and the unpacked reference model, asserting identical
    /// outcomes (latencies included), counters and occupancy.
    #[test]
    fn packed_matches_unpacked_reference() {
        let config = TsbConfig { capacity_bytes: 4 << 10, ..Default::default() }; // 256 slots
        let mut tsb = Tsb::new(config);
        let mut model = RefTsb::new(config);
        let (mut h1, mut d1, mut h2, mut d2) = (hier(), dram(), hier(), dram());
        let vms = [0u16, 1, 4095, 4096, 9999, u16::MAX];
        let pids = [0u16, 1, 300, u16::MAX];
        // Frames at the top of each simulated physical region (guest
        // data, host data, page-table nodes) and of the 48-bit range.
        let tops = [0x40_4000_0000u64, 0x41_0000_0000, 0x50_0000_0000, 1 << 48];
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 17
        };
        let mut now = Cycles::ZERO;
        for step in 0..30_000u32 {
            let op = next() % 8;
            let r = next();
            let space = AddressSpace::new(VmId(vms[(r % 6) as usize]), ProcessId(pids[((r >> 3) % 4) as usize]));
            let size = PageSize::POM_SIZES[((r >> 5) & 1) as usize];
            let vpn = if (r >> 6).is_multiple_of(16) {
                (1u64 << (48 - size.shift())) - 1 - (r >> 10) % 4
            } else {
                (r >> 10) % 256
            };
            let gva = Gva::new((vpn << size.shift()) | ((r >> 20) & 0xfff));
            let r2 = next();
            let frame = |n: u64| {
                if n.is_multiple_of(8) {
                    tops[((n >> 3) % 4) as usize] - size.bytes()
                } else {
                    ((n >> 3) % 1024) << size.shift()
                }
            };
            let (gpa_base, hpa_base) = (frame(r2), Hpa::new(frame(r2 >> 20)));
            match op {
                0..=2 => {
                    tsb.fill(space, gva, size, gpa_base, hpa_base);
                    model.fill(space, gva, size, gpa_base, hpa_base);
                }
                3..=5 => {
                    let got = tsb.translate(CoreId(0), space, gva, size, &mut h1, &mut d1, now);
                    let want = model.translate(CoreId(0), space, gva, size, &mut h2, &mut d2, now);
                    assert_eq!(got, want, "translate diverged at step {step}");
                    now += got.latency;
                }
                6 => assert_eq!(
                    tsb.invalidate(space, gva, size),
                    model.invalidate(space, gva, size),
                    "invalidate diverged at step {step}"
                ),
                _ if r2.is_multiple_of(8) => assert_eq!(
                    tsb.flush_vm(space.vm),
                    model.flush_vm(space.vm),
                    "flush diverged at step {step}"
                ),
                _ => {}
            }
            if step.is_multiple_of(500) {
                assert_eq!(occupancy(&tsb), model.occupancy(), "occupancy at step {step}");
            }
        }
        assert_eq!(
            (tsb.hits(), tsb.misses(), tsb.conflicts(), occupancy(&tsb)),
            (model.hits, model.misses, model.conflicts, model.occupancy())
        );
        assert!(tsb.hits() > 0 && tsb.misses() > 0 && tsb.conflicts() > 0);
    }
}
