//! The POM-TLB structure: a very large, addressable, DRAM-resident L3 TLB.
//!
//! Organization (§2.1.1–2.1.3):
//!
//! * statically partitioned between 4 KB entries (`POM_TLB_small`) and 2 MB
//!   entries (`POM_TLB_large`);
//! * 4-way set associative, with one set exactly filling one 64-byte
//!   die-stacked DRAM burst (no memory-controller changes needed);
//! * **addressable**: each set has a real host-physical address, computed
//!   by Eq. (1) from the faulting virtual address and the VM ID, so sets
//!   can be probed through — and cached by — the regular data caches;
//! * replacement within a set uses the 2 LRU bits stored in each entry's
//!   attribute field, fetched for free in the same burst (§2.2).
//!
//! This module models the structure's *contents*; timing for its DRAM
//! accesses comes from the die-stacked [`pomtlb_dram::Channel`] the system
//! simulator owns.

use std::ops::Range;

use pomtlb_types::{AddressSpace, Gva, Hpa, PageSize, Ppn, Vpn, VmId};
use serde::{Deserialize, Serialize};

use crate::config::PomTlbConfig;
use crate::entry::{is_live, PomEntry, KEY_MASK, LRU, PPN, VALID, VM, VPN};

/// Result of a POM-TLB set probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PomLookup {
    /// Base host-physical address of the translated page.
    pub page_base: Hpa,
    /// The partition that hit.
    pub size: PageSize,
}

/// Occupancy and traffic statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PomTlbStats {
    /// Probes that found a matching entry.
    pub hits: u64,
    /// Probes that found none.
    pub misses: u64,
    /// Inserts that displaced a live entry.
    pub evictions: u64,
    /// Entries removed by shootdowns.
    pub invalidations: u64,
}

impl PomTlbStats {
    /// Hit rate over all probes; zero with none.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Slot words per storage chunk: 4 KiB of 16-byte entries, 64 four-way
/// sets. A chunk holds whole sets, and the associativity ablation's 1, 2,
/// 4 and 8 ways all fill one exactly.
const CHUNK_WORDS: usize = (4 << 10) / PomEntry::BYTES;

/// Chunk-table entry of a chunk no insert has reached.
const UNWRITTEN: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Partition {
    size: PageSize,
    base: Hpa,
    /// Set count minus one, precomputed: the set count is asserted to be a
    /// power of two, so the Eq. (1) index extraction is a single AND per
    /// lookup.
    set_mask: u64,
    /// Bytes one set occupies in the address space (16 × ways).
    set_bytes: u64,
    ways: usize,
    /// log2 of the sets one chunk holds.
    chunk_shift: u32,
    /// Chunk table, in set order: the [`PomTlb`] arena index of each
    /// chunk's first slot word, or [`UNWRITTEN`] while every slot of the
    /// chunk is still empty.
    chunks: Vec<u32>,
}

/// Eq. (1): the index of the set `va` maps to among the `set_mask + 1`
/// (a power of two) sets of its `size` partition.
///
/// The paper XORs the VM ID into the address before extracting
/// `log2 N` index bits "to distribute the set-mapping evenly"; we apply
/// the shift at page granularity (the printed formula's `>> 6` would
/// fold sub-page bits into the index and alias every line of a page to
/// a different set), and we fold a multiplicative hash of the VM and
/// process IDs in as well so that SPECrate-style same-layout copies
/// spread across the whole set space, as ASLR'd processes do on real
/// systems — see DESIGN.md.
#[inline]
pub(crate) fn eq1_set_index(space: AddressSpace, va: Gva, size: PageSize, set_mask: u64) -> u64 {
    let vpn = Vpn::of(va, size).0;
    let salt = space.vm.as_u64().wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ space.process.as_u64().wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    (vpn ^ (salt >> 32)) & set_mask
}

impl Partition {
    /// `n_sets` comes validated from [`PomTlbConfig::n_sets`].
    fn new(size: PageSize, base: Hpa, n_sets: u64, ways: u32) -> Partition {
        let ways = ways as usize;
        // Whole sets per chunk, a power of two, at most the partition's.
        let chunk_sets = ((CHUNK_WORDS / ways).max(1) as u64).min(n_sets);
        let chunk_shift = chunk_sets.ilog2();
        Partition {
            size,
            base,
            set_mask: n_sets - 1,
            set_bytes: 16 * ways as u64,
            ways,
            chunk_shift,
            chunks: vec![UNWRITTEN; (n_sets >> chunk_shift) as usize],
        }
    }

    /// Eq. (1): the set index for `va` in this partition.
    fn set_index(&self, space: AddressSpace, va: Gva) -> u64 {
        eq1_set_index(space, va, self.size, self.set_mask)
    }

    /// Number of sets in this partition.
    fn n_sets(&self) -> u64 {
        self.set_mask + 1
    }

    fn set_addr(&self, index: u64) -> Hpa {
        Hpa::new(self.base.raw() + index * self.set_bytes)
    }

    /// Slot words in one chunk.
    fn chunk_words(&self) -> usize {
        self.ways << self.chunk_shift
    }

    /// The probe key of `(space, va)` and the set it maps to.
    fn probe(&self, space: AddressSpace, va: Gva) -> (u128, u64) {
        (PomEntry::key(space, Vpn::of(va, self.size).0), self.set_index(space, va))
    }

    /// The arena indices of `set`'s slots, or `None` while no insert has
    /// reached its chunk — a set there is empty.
    fn slots(&self, set: u64) -> Option<Range<usize>> {
        let at = self.chunks[(set >> self.chunk_shift) as usize];
        let start = at as usize + (set & ((1 << self.chunk_shift) - 1)) as usize * self.ways;
        (at != UNWRITTEN).then_some(start..start + self.ways)
    }

    /// As [`Partition::slots`], first appending `set`'s chunk, zeroed, to
    /// `arena` if no insert has reached it yet.
    fn slots_alloc(&mut self, arena: &mut Vec<u128>, set: u64) -> Range<usize> {
        let chunk = (set >> self.chunk_shift) as usize;
        if self.chunks[chunk] == UNWRITTEN {
            self.chunks[chunk] = arena.len() as u32;
            arena.resize(arena.len() + self.chunk_words(), 0);
        }
        self.slots(set).expect("the chunk was just written")
    }

    /// The written chunks in set order: each one's first set and the
    /// arena indices of its slots.
    fn written(&self) -> impl Iterator<Item = (u64, Range<usize>)> + '_ {
        let words = self.chunk_words();
        self.chunks.iter().enumerate().filter(|&(_, &at)| at != UNWRITTEN).map(move |(chunk, &at)| {
            ((chunk as u64) << self.chunk_shift, at as usize..at as usize + words)
        })
    }
}

/// The way of `slots` whose key bits equal `key`, compared packed.
#[inline]
fn find_way(slots: &[u128], key: u128) -> Option<usize> {
    slots.iter().position(|&w| w & KEY_MASK == key)
}

/// The two-partition POM-TLB.
///
/// A part-of-memory TLB is touched only where translations land, and so
/// is its model: each partition's sets live in 4 KiB chunks that the
/// first insert into one of their sets appends, zeroed, to one shared
/// arena. The arena is reserved at the flat arrays' exact size and never
/// zeroed up front, so building a POM-TLB costs its chunk tables alone,
/// and a run pays for the chunks its translations reach. A probe of a
/// set whose chunk no insert has reached is a miss and allocates nothing.
#[derive(Debug, Clone)]
pub struct PomTlb {
    config: PomTlbConfig,
    small: Partition,
    large: Partition,
    /// Both partitions' written chunks, in the order they were first
    /// written; zero is an empty slot ([`crate::entry`]).
    arena: Vec<u128>,
    stats: PomTlbStats,
}

impl PomTlb {
    /// Builds an empty POM-TLB.
    ///
    /// # Panics
    ///
    /// Panics if either partition's geometry is degenerate.
    pub fn new(config: PomTlbConfig) -> PomTlb {
        let small = Partition::new(
            PageSize::Small4K,
            config.base_small,
            config.n_sets(PageSize::Small4K),
            config.ways,
        );
        let large = Partition::new(
            PageSize::Large2M,
            config.base_large(),
            config.n_sets(PageSize::Large2M),
            config.ways,
        );
        let mut pom = PomTlb { config, small, large, arena: Vec::new(), stats: PomTlbStats::default() };
        let words = pom.capacity_entries();
        assert!(words < UNWRITTEN as u64, "{words} POM-TLB entries exceed 32-bit chunk offsets");
        pom.arena.reserve_exact(words as usize);
        pom
    }

    /// The configuration.
    pub fn config(&self) -> &PomTlbConfig {
        &self.config
    }

    fn partition(&self, size: PageSize) -> &Partition {
        match size {
            PageSize::Small4K => &self.small,
            PageSize::Large2M => &self.large,
            PageSize::Huge1G => panic!("1 GB pages have no POM-TLB partition"),
        }
    }

    /// The `size` partition and the arena, borrowed apart.
    fn partition_mut(&mut self, size: PageSize) -> (&mut Partition, &mut Vec<u128>) {
        let p = match size {
            PageSize::Small4K => &mut self.small,
            PageSize::Large2M => &mut self.large,
            PageSize::Huge1G => panic!("1 GB pages have no POM-TLB partition"),
        };
        (p, &mut self.arena)
    }

    /// The probe key of `(space, va)` and the arena indices of the slots
    /// of the `size` set it maps to, or `None` while that set's chunk is
    /// unwritten (every slot empty).
    fn probe(&self, space: AddressSpace, va: Gva, size: PageSize) -> (u128, Option<Range<usize>>) {
        let p = self.partition(size);
        let (key, set) = p.probe(space, va);
        (key, p.slots(set))
    }

    /// Eq. (1): the host-physical address of the set `va` maps to in the
    /// `size` partition. This is the address the MMU probes the data caches
    /// with, and the address the die-stacked DRAM services on a cache miss.
    pub fn set_addr(&self, space: AddressSpace, va: Gva, size: PageSize) -> Hpa {
        let p = self.partition(size);
        p.set_addr(p.set_index(space, va))
    }

    /// Eq. (1): the raw set index `va` maps to in the `size` partition —
    /// a function of the geometry alone ([`PomTlbConfig::set_index`]).
    pub fn set_index(&self, space: AddressSpace, va: Gva, size: PageSize) -> u64 {
        self.config.set_index(space, va, size)
    }

    /// Number of sets in the `size` partition (always a power of two).
    pub fn n_sets(&self, size: PageSize) -> u64 {
        self.partition(size).n_sets()
    }

    /// Whether `addr` falls inside the POM-TLB's reserved physical range.
    pub fn owns_addr(&self, addr: Hpa) -> bool {
        let start = self.config.base_small.raw();
        addr.raw() >= start && addr.raw() < start + self.config.capacity_bytes
    }

    /// Probes one partition's set for a translation, updating entry LRU
    /// ages on a hit (the burst carries all four entries, so this costs no
    /// extra DRAM access).
    pub fn lookup(&mut self, space: AddressSpace, va: Gva, size: PageSize) -> Option<PomLookup> {
        let (key, set) = self.probe(space, va, size);
        let hit = set.and_then(|set| {
            let slots = &mut self.arena[set];
            let w = find_way(slots, key)?;
            age_update(slots, w);
            Some(PPN.get(slots[w]))
        });
        match hit {
            Some(ppn) => {
                self.stats.hits += 1;
                Some(PomLookup { page_base: Ppn(ppn).base(size), size })
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Installs a translation resolved by a page walk. Returns `true` if a
    /// live entry was displaced (LRU within the set).
    ///
    /// # Panics
    ///
    /// Panics if the VPN or PPN exceeds its 36-bit field.
    pub fn insert(&mut self, space: AddressSpace, va: Gva, size: PageSize, page_base: Hpa) -> bool {
        let (p, arena) = self.partition_mut(size);
        let (key, set) = p.probe(space, va);
        let set = p.slots_alloc(arena, set);
        let slots = &mut arena[set];
        let word = PomEntry::new(space, VPN.get(key), Ppn::of(page_base, size).0).to_word();
        // Refresh in place.
        if let Some(w) = find_way(slots, key) {
            slots[w] = PPN.set(slots[w], PPN.get(word));
            age_update(slots, w);
            return false;
        }
        let ways = slots.len();
        let victim = (0..ways)
            .find(|&w| !is_live(slots[w]))
            .unwrap_or_else(|| (0..ways).max_by_key(|&w| LRU.get(slots[w])).expect("ways > 0"));
        let displaced = is_live(slots[victim]);
        slots[victim] = word;
        age_update(slots, victim);
        if displaced {
            self.stats.evictions += 1;
        }
        displaced
    }

    /// Shootdown of one translation. Returns whether it was present.
    pub fn invalidate_page(&mut self, space: AddressSpace, va: Gva, size: PageSize) -> bool {
        let (key, set) = self.probe(space, va, size);
        let Some(slots) = set.map(|set| &mut self.arena[set]) else { return false };
        let Some(w) = find_way(slots, key) else { return false };
        slots[w] = 0;
        self.stats.invalidations += 1;
        true
    }

    /// Drops every entry of a VM (teardown). Fills `evicted` (cleared
    /// first) with the host-physical set address of each removed entry (one
    /// element per entry, so the length is the number of entries dropped) —
    /// under the mostly-inclusive rule the caller must also invalidate any
    /// data-cache copies of exactly these lines, or the caches would keep
    /// serving dead translations.
    ///
    /// Takes the output buffer by `&mut` so churn-heavy consolidation runs
    /// (10k VMs tearing down constantly) reuse one allocation instead of
    /// paying a fresh `Vec` per teardown on this hot path.
    pub fn flush_vm(&mut self, vm: VmId, evicted: &mut Vec<Hpa>) {
        evicted.clear();
        let mask = VALID.mask() | VM.mask();
        let owned = VALID.place(1) | VM.place(vm.as_u64());
        for p in [&self.small, &self.large] {
            for (first_set, chunk) in p.written() {
                for (i, w) in self.arena[chunk].iter_mut().enumerate() {
                    if *w & mask == owned {
                        *w = 0;
                        // Reconstruct through the same Eq. (1) helper every
                        // other consumer uses — the shootdown engine scrubs
                        // data-cache copies of exactly these addresses, so a
                        // divergent re-derivation here would silently break
                        // the mostly-inclusive rule.
                        evicted.push(p.set_addr(first_set + (i / p.ways) as u64));
                    }
                }
            }
        }
        self.stats.invalidations += evicted.len() as u64;
    }

    /// Valid entries in the given partition.
    pub fn occupancy(&self, size: PageSize) -> u64 {
        let live = |chunk: Range<usize>| self.arena[chunk].iter().filter(|&&w| is_live(w)).count();
        self.partition(size).written().map(|(_, chunk)| live(chunk) as u64).sum()
    }

    /// Total entry capacity across both partitions.
    pub fn capacity_entries(&self) -> u64 {
        [&self.small, &self.large].iter().map(|p| p.n_sets() * p.ways as u64).sum()
    }

    /// Bytes of entry storage both partitions have allocated: 16 per entry
    /// of every written chunk, plus both chunk tables.
    pub fn storage_bytes(&self) -> u64 {
        (std::mem::size_of_val(self.arena.as_slice())
            + std::mem::size_of_val(self.small.chunks.as_slice())
            + std::mem::size_of_val(self.large.chunks.as_slice())) as u64
    }

    /// Non-timing peek used by tests and the bypass-predictor oracle.
    pub fn contains(&self, space: AddressSpace, va: Gva, size: PageSize) -> bool {
        let (key, set) = self.probe(space, va, size);
        set.is_some_and(|set| find_way(&self.arena[set], key).is_some())
    }

    /// Fault injection: flips one bit in the PPN field of the `selector`-th
    /// live entry (counting across both partitions), modeling a device
    /// fault in the die-stacked DRAM array. Returns the identity of the
    /// corrupted translation — the address space, page base, and size —
    /// so the injector can watch for the wrong frame being served, or
    /// `None` when the structure holds no entries to corrupt.
    ///
    /// `bit` is taken modulo 36 (the PPN field width, Figure 5); the
    /// caller supplies both draws from its own deterministic plan so the
    /// corruption schedule stays a pure function of the fault seed.
    pub fn corrupt_entry(&mut self, selector: u64, bit: u32) -> Option<(AddressSpace, Gva, PageSize)> {
        let live = self.occupancy(PageSize::Small4K) + self.occupancy(PageSize::Large2M);
        if live == 0 {
            return None;
        }
        let mut nth = selector % live;
        for p in [&self.small, &self.large] {
            for (_, chunk) in p.written() {
                for w in self.arena[chunk].iter_mut().filter(|w| is_live(**w)) {
                    if nth == 0 {
                        *w ^= PPN.place(1 << (bit % PPN.width));
                        let e = PomEntry::from_word(*w).expect("live word decodes");
                        return Some((e.space, Vpn(e.vpn).base(p.size), p.size));
                    }
                    nth -= 1;
                }
            }
        }
        None
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &PomTlbStats {
        &self.stats
    }

    /// Resets statistics (post-warmup).
    pub fn reset_stats(&mut self) {
        self.stats = PomTlbStats::default();
    }
}

/// Sets way `mru` to age 0 and ages everything younger by one, keeping the
/// 2-bit saturation of the attr-field LRU (§2.2).
fn age_update(slots: &mut [u128], mru: usize) {
    let mru_age = LRU.get(slots[mru]);
    for (w, slot) in slots.iter_mut().enumerate() {
        if !is_live(*slot) {
            continue;
        }
        let age = LRU.get(*slot);
        if w == mru {
            *slot = LRU.set(*slot, 0);
        } else if age < mru_age || mru_age == 0 {
            *slot = LRU.set(*slot, (age + 1).min(3));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomtlb_types::{ProcessId, VmId};
    use proptest::prelude::*;

    fn space(vm: u16) -> AddressSpace {
        AddressSpace::new(VmId(vm), ProcessId(0))
    }

    fn tiny() -> PomTlb {
        // 4 KB partition: 2 KB = 32 sets; large partition: 2 KB = 32 sets.
        PomTlb::new(PomTlbConfig {
            capacity_bytes: 4 << 10,
            ..Default::default()
        })
    }

    #[test]
    fn default_geometry_matches_paper() {
        let mut pom = PomTlb::new(PomTlbConfig::default());
        // 16 MB / 16 B = 1 M entries.
        assert_eq!(pom.capacity_entries(), 1 << 20);
        // 8 MB per partition / 64 B per set = 128 Ki sets each.
        assert_eq!(pom.small.n_sets(), 128 << 10);
        assert_eq!(pom.large.n_sets(), 128 << 10);
        // Stored at the paper's 16 bytes per entry, in 4 KiB chunks of 64
        // sets that the first insert into them writes: an empty array is
        // its two 2,048-entry chunk tables, and the flat 16 MiB is the
        // arena's reserve.
        let tables = 2 * 2048 * 4;
        assert_eq!(pom.storage_bytes(), tables);
        assert_eq!(pom.arena.capacity(), 1 << 20);
        pom.insert(space(0), Gva::new(0x1000), PageSize::Small4K, Hpa::new(0x1000));
        pom.insert(space(0), Gva::new(0x2000), PageSize::Small4K, Hpa::new(0x2000));
        assert_eq!(pom.storage_bytes(), tables + 4096, "neighbouring sets share a chunk");
        pom.insert(space(0), Gva::new(64 << 12), PageSize::Small4K, Hpa::new(0x3000));
        assert_eq!(pom.storage_bytes(), tables + 2 * 4096, "set 64 starts the next chunk");
    }

    #[test]
    fn set_addr_is_line_aligned_and_in_range() {
        let pom = PomTlb::new(PomTlbConfig::default());
        for (va, size) in [
            (Gva::new(0x1234_5000), PageSize::Small4K),
            (Gva::new(0x8_0000_0000), PageSize::Large2M),
        ] {
            let addr = pom.set_addr(space(3), va, size);
            assert_eq!(addr.raw() % 64, 0);
            assert!(pom.owns_addr(addr), "{addr} outside POM range");
        }
    }

    #[test]
    fn partitions_have_disjoint_addresses() {
        let pom = PomTlb::new(PomTlbConfig::default());
        let a = pom.set_addr(space(0), Gva::new(0x1000), PageSize::Small4K);
        let b = pom.set_addr(space(0), Gva::new(0x1000), PageSize::Large2M);
        assert!(a.raw() < pom.config().base_large().raw());
        assert!(b.raw() >= pom.config().base_large().raw());
    }

    #[test]
    fn same_page_same_set_addr() {
        // Every line of a page must map to the same set (the deviation from
        // the paper's literal ">> 6" — see module docs).
        let pom = PomTlb::new(PomTlbConfig::default());
        let a = pom.set_addr(space(0), Gva::new(0x1234_5000), PageSize::Small4K);
        let b = pom.set_addr(space(0), Gva::new(0x1234_5fc0), PageSize::Small4K);
        assert_eq!(a, b);
    }

    #[test]
    fn vm_id_perturbs_set_index() {
        let pom = PomTlb::new(PomTlbConfig::default());
        let a = pom.set_addr(space(0), Gva::new(0x1000), PageSize::Small4K);
        let b = pom.set_addr(space(1), Gva::new(0x1000), PageSize::Small4K);
        assert_ne!(a, b, "Eq. (1) XORs the VM ID into the index");
    }

    #[test]
    fn miss_then_hit() {
        let mut pom = tiny();
        let s = space(0);
        let va = Gva::new(0x7000);
        assert!(pom.lookup(s, va, PageSize::Small4K).is_none());
        pom.insert(s, va, PageSize::Small4K, Hpa::new(0x12_3000));
        let hit = pom.lookup(s, va, PageSize::Small4K).unwrap();
        assert_eq!(hit.page_base, Hpa::new(0x12_3000));
        assert_eq!(hit.size, PageSize::Small4K);
        assert_eq!(pom.stats().hits, 1);
        assert_eq!(pom.stats().misses, 1);
    }

    #[test]
    fn sizes_do_not_alias() {
        let mut pom = tiny();
        let s = space(0);
        let va = Gva::new(0x40_0000);
        pom.insert(s, va, PageSize::Large2M, Hpa::new(0x4000_0000));
        assert!(pom.lookup(s, va, PageSize::Small4K).is_none());
        assert!(pom.lookup(s, va, PageSize::Large2M).is_some());
    }

    #[test]
    fn four_way_lru_replacement() {
        let mut pom = tiny();
        let s = space(0);
        let n_sets = pom.small.n_sets();
        // Five pages hitting the same set of the 32-set small partition.
        let vas: Vec<Gva> = (0..5).map(|i| Gva::new((7 + i * n_sets) << 12)).collect();
        for (i, va) in vas.iter().enumerate() {
            pom.insert(s, *va, PageSize::Small4K, Hpa::new((i as u64 + 1) << 12));
        }
        // First-inserted page was LRU and must be gone; the rest survive.
        assert!(!pom.contains(s, vas[0], PageSize::Small4K));
        for va in &vas[1..] {
            assert!(pom.contains(s, *va, PageSize::Small4K));
        }
        assert_eq!(pom.stats().evictions, 1);
    }

    #[test]
    fn lookup_refreshes_lru() {
        let mut pom = tiny();
        let s = space(0);
        let n_sets = pom.small.n_sets();
        let vas: Vec<Gva> = (0..4).map(|i| Gva::new((3 + i * n_sets) << 12)).collect();
        for va in &vas {
            pom.insert(s, *va, PageSize::Small4K, Hpa::new(0x1000));
        }
        // Touch the oldest; the second-oldest becomes the victim.
        pom.lookup(s, vas[0], PageSize::Small4K);
        pom.insert(s, Gva::new((3 + 4 * n_sets) << 12), PageSize::Small4K, Hpa::new(0x2000));
        assert!(pom.contains(s, vas[0], PageSize::Small4K), "refreshed entry survives");
        assert!(!pom.contains(s, vas[1], PageSize::Small4K), "LRU entry evicted");
    }

    #[test]
    fn insert_refresh_does_not_duplicate() {
        let mut pom = tiny();
        let s = space(0);
        let va = Gva::new(0x9000);
        pom.insert(s, va, PageSize::Small4K, Hpa::new(0x1000));
        pom.insert(s, va, PageSize::Small4K, Hpa::new(0x2000));
        assert_eq!(pom.occupancy(PageSize::Small4K), 1);
        assert_eq!(
            pom.lookup(s, va, PageSize::Small4K).unwrap().page_base,
            Hpa::new(0x2000)
        );
    }

    #[test]
    fn invalidate_and_flush() {
        let mut pom = tiny();
        pom.insert(space(1), Gva::new(0x1000), PageSize::Small4K, Hpa::new(0x1000));
        pom.insert(space(1), Gva::new(0x2000), PageSize::Small4K, Hpa::new(0x2000));
        pom.insert(space(2), Gva::new(0x3000), PageSize::Small4K, Hpa::new(0x3000));
        assert!(pom.invalidate_page(space(1), Gva::new(0x1000), PageSize::Small4K));
        assert!(!pom.invalidate_page(space(1), Gva::new(0x1000), PageSize::Small4K));
        let mut evicted = vec![Hpa::new(0xdead)];
        pom.flush_vm(VmId(1), &mut evicted);
        assert_eq!(evicted.len(), 1, "one surviving vm1 entry to flush (scratch cleared)");
        assert_eq!(
            evicted[0],
            pom.set_addr(space(1), Gva::new(0x2000), PageSize::Small4K),
            "flush reports the evicted entry's set address"
        );
        assert_eq!(pom.occupancy(PageSize::Small4K), 1);
        assert!(pom.contains(space(2), Gva::new(0x3000), PageSize::Small4K));
    }

    #[test]
    fn corrupt_entry_flips_ppn_and_reports_identity() {
        let mut pom = tiny();
        let s = space(0);
        let va = Gva::new(0x7000);
        pom.insert(s, va, PageSize::Small4K, Hpa::new(0x12_3000));
        let (hit_space, hit_va, hit_size) =
            pom.corrupt_entry(0, 3).expect("one live entry to corrupt");
        assert_eq!(hit_space, s);
        assert_eq!(hit_va, va.page_base(PageSize::Small4K));
        assert_eq!(hit_size, PageSize::Small4K);
        let served = pom.lookup(s, va, PageSize::Small4K).unwrap().page_base;
        assert_ne!(served, Hpa::new(0x12_3000), "flip must change the frame");
        assert_eq!(
            served.raw() ^ Hpa::new(0x12_3000).raw(),
            1 << (12 + 3),
            "exactly the chosen PPN bit differs (bit 3 above the 4 KB shift)"
        );
    }

    #[test]
    fn corrupt_empty_structure_is_none() {
        let mut pom = tiny();
        assert!(pom.corrupt_entry(7, 5).is_none());
    }

    #[test]
    fn sixteen_mb_reaches_millions_of_pages() {
        let pom = PomTlb::new(PomTlbConfig::default());
        // Insert far more 4 KB translations than any on-chip TLB holds and
        // verify they are all retained (width of reach, §4.6).
        let mut pom = pom;
        let s = space(0);
        let n = 100_000u64;
        for i in 0..n {
            pom.insert(s, Gva::new(i << 12), PageSize::Small4K, Hpa::new(i << 12));
        }
        let mut present = 0u64;
        for i in 0..n {
            if pom.contains(s, Gva::new(i << 12), PageSize::Small4K) {
                present += 1;
            }
        }
        assert!(present as f64 / n as f64 > 0.99, "retained {present}/{n}");
    }

    #[test]
    fn high_vm_and_process_ids_do_not_alias() {
        let mut pom = tiny();
        let a = AddressSpace::new(VmId(0), ProcessId(0));
        let b = AddressSpace::new(VmId(4096), ProcessId(0));
        let c = AddressSpace::new(VmId(0), ProcessId(4096));
        let va = Gva::new(0x5000);
        pom.insert(a, va, PageSize::Small4K, Hpa::new(0x1000));
        assert!(!pom.contains(b, va, PageSize::Small4K));
        assert!(!pom.contains(c, va, PageSize::Small4K));
        pom.insert(b, va, PageSize::Small4K, Hpa::new(0x2000));
        assert_eq!(pom.lookup(a, va, PageSize::Small4K).unwrap().page_base, Hpa::new(0x1000));
        assert_eq!(pom.lookup(b, va, PageSize::Small4K).unwrap().page_base, Hpa::new(0x2000));
        let mut evicted = Vec::new();
        pom.flush_vm(VmId(4096), &mut evicted);
        assert_eq!(evicted.len(), 1);
        assert!(pom.contains(a, va, PageSize::Small4K));
    }

    #[test]
    #[should_panic(expected = "exceeds 36 bits")]
    fn frame_beyond_the_ppn_field_is_rejected() {
        tiny().insert(space(0), Gva::new(0x1000), PageSize::Small4K, Hpa::new(1 << 48));
    }

    /// The flat, unpacked `Option<PomEntry>` POM-TLB the packed, chunked
    /// partitions replaced, kept as an independent model of their
    /// behaviour. It also notes which 64-set chunks an insert reached,
    /// which fixes the chunked storage.
    mod reference {
        use super::super::PomLookup;
        use crate::entry::PomEntry;
        use crate::pom_tlb::PomTlbStats;
        use pomtlb_types::{AddressSpace, Gva, Hpa, PageSize, Ppn, Vpn, VmId};

        pub struct RefPartition {
            size: PageSize,
            base: Hpa,
            n_sets: u64,
            ways: usize,
            slots: Vec<Option<PomEntry>>,
            written: Vec<bool>,
        }

        impl RefPartition {
            fn set_index(&self, space: AddressSpace, va: Gva) -> u64 {
                let vpn = Vpn::of(va, self.size).0;
                let salt = space.vm.as_u64().wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    ^ space.process.as_u64().wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
                (vpn ^ (salt >> 32)) % self.n_sets
            }

            pub fn chunk_of(&self, space: AddressSpace, va: Gva) -> usize {
                (self.set_index(space, va) / 64) as usize
            }

            pub fn written(&self) -> &[bool] {
                &self.written
            }

            fn set(&mut self, space: AddressSpace, va: Gva) -> &mut [Option<PomEntry>] {
                let start = self.set_index(space, va) as usize * self.ways;
                &mut self.slots[start..start + self.ways]
            }
        }

        pub struct RefPomTlb {
            pub small: RefPartition,
            pub large: RefPartition,
            pub stats: PomTlbStats,
        }

        fn age_update(slots: &mut [Option<PomEntry>], mru: usize) {
            let mru_age = slots[mru].map(|e| e.lru).unwrap_or(0);
            for (w, slot) in slots.iter_mut().enumerate() {
                if let Some(e) = slot {
                    if w == mru {
                        e.lru = 0;
                    } else if e.lru < mru_age || mru_age == 0 {
                        e.lru = (e.lru + 1).min(3);
                    }
                }
            }
        }

        impl RefPomTlb {
            pub fn new(small: (Hpa, u64), large: (Hpa, u64), ways: usize) -> RefPomTlb {
                let part = |size, (base, bytes): (Hpa, u64)| RefPartition {
                    size,
                    base,
                    n_sets: bytes / (16 * ways as u64),
                    ways,
                    slots: vec![None; (bytes / 16) as usize],
                    written: vec![false; (bytes / (16 * ways as u64) / 64) as usize],
                };
                RefPomTlb {
                    small: part(PageSize::Small4K, small),
                    large: part(PageSize::Large2M, large),
                    stats: PomTlbStats::default(),
                }
            }

            fn part(&mut self, size: PageSize) -> &mut RefPartition {
                match size {
                    PageSize::Small4K => &mut self.small,
                    _ => &mut self.large,
                }
            }

            /// 4 KiB per written 64-set chunk of four-way sets, plus four
            /// bytes per chunk-table entry.
            pub fn chunked_bytes(&self) -> u64 {
                [&self.small, &self.large]
                    .iter()
                    .map(|p| 4 * p.written.len() as u64 + 4096 * p.written.iter().filter(|&&w| w).count() as u64)
                    .sum()
            }

            pub fn lookup(&mut self, space: AddressSpace, va: Gva, size: PageSize) -> Option<PomLookup> {
                let vpn = Vpn::of(va, size).0;
                let slots = self.part(size).set(space, va);
                match slots.iter().position(|s| s.is_some_and(|e| e.matches(space, vpn))) {
                    Some(w) => {
                        age_update(slots, w);
                        let ppn = slots[w].unwrap().ppn;
                        self.stats.hits += 1;
                        Some(PomLookup { page_base: Ppn(ppn).base(size), size })
                    }
                    None => {
                        self.stats.misses += 1;
                        None
                    }
                }
            }

            pub fn insert(&mut self, space: AddressSpace, va: Gva, size: PageSize, base: Hpa) -> bool {
                let vpn = Vpn::of(va, size).0;
                let ppn = Ppn::of(base, size).0;
                let chunk = self.part(size).chunk_of(space, va);
                self.part(size).written[chunk] = true;
                let slots = self.part(size).set(space, va);
                let ways = slots.len();
                if let Some(w) = (0..ways).find(|&w| slots[w].is_some_and(|e| e.matches(space, vpn))) {
                    slots[w].as_mut().unwrap().ppn = ppn;
                    age_update(slots, w);
                    return false;
                }
                let victim = (0..ways).find(|&w| slots[w].is_none()).unwrap_or_else(|| {
                    (0..ways).max_by_key(|&w| slots[w].map(|e| e.lru).unwrap_or(u8::MAX)).unwrap()
                });
                let displaced = slots[victim].is_some();
                slots[victim] = Some(PomEntry::new(space, vpn, ppn));
                age_update(slots, victim);
                if displaced {
                    self.stats.evictions += 1;
                }
                displaced
            }

            pub fn invalidate_page(&mut self, space: AddressSpace, va: Gva, size: PageSize) -> bool {
                let vpn = Vpn::of(va, size).0;
                for slot in self.part(size).set(space, va) {
                    if slot.is_some_and(|e| e.matches(space, vpn)) {
                        *slot = None;
                        self.stats.invalidations += 1;
                        return true;
                    }
                }
                false
            }

            pub fn flush_vm(&mut self, vm: VmId) -> Vec<Hpa> {
                let mut evicted = Vec::new();
                for p in [&mut self.small, &mut self.large] {
                    for i in 0..p.slots.len() {
                        if p.slots[i].is_some_and(|e| e.space.vm == vm) {
                            p.slots[i] = None;
                            let set = (i / p.ways) as u64;
                            evicted.push(Hpa::new(p.base.raw() + set * 16 * p.ways as u64));
                        }
                    }
                }
                self.stats.invalidations += evicted.len() as u64;
                evicted
            }

            pub fn occupancy(&self, size: PageSize) -> u64 {
                let p = if size == PageSize::Small4K { &self.small } else { &self.large };
                p.slots.iter().flatten().count() as u64
            }

            pub fn contains(&mut self, space: AddressSpace, va: Gva, size: PageSize) -> bool {
                let vpn = Vpn::of(va, size).0;
                self.part(size).set(space, va).iter().any(|s| s.is_some_and(|e| e.matches(space, vpn)))
            }

            pub fn corrupt_entry(&mut self, selector: u64, bit: u32) -> Option<(AddressSpace, Gva, PageSize)> {
                let live = self.occupancy(PageSize::Small4K) + self.occupancy(PageSize::Large2M);
                if live == 0 {
                    return None;
                }
                let mut nth = selector % live;
                for p in [&mut self.small, &mut self.large] {
                    let size = p.size;
                    for e in p.slots.iter_mut().flatten() {
                        if nth == 0 {
                            e.ppn ^= 1u64 << (bit % 36);
                            return Some((e.space, Vpn(e.vpn).base(size), size));
                        }
                        nth -= 1;
                    }
                }
                None
            }
        }
    }

    /// Replays a seeded script of every mutating and probing operation
    /// against the packed, chunked POM-TLB and the flat, unpacked
    /// reference model, asserting identical results, statistics,
    /// occupancy and storage. Each address space inserts into two of the
    /// 4 KiB chunks, so about half stay unwritten; one probe in four draws
    /// from the whole address space,
    /// so lookups, invalidations and `contains` land on sets no insert
    /// reached, and `flush_vm` and `corrupt_entry` walk past unwritten
    /// chunks between written ones.
    #[test]
    fn packed_matches_unpacked_reference() {
        // 64 chunks of 64 four-way sets per partition.
        let config = PomTlbConfig { capacity_bytes: 512 << 10, ..Default::default() };
        let mut pom = PomTlb::new(config);
        let mut model = reference::RefPomTlb::new(
            (config.base_small, config.small_bytes()),
            (config.base_large(), config.large_bytes()),
            config.ways as usize,
        );
        // VM IDs past Figure 5's 12 bits and non-zero process IDs, so an
        // aliasing codec would merge tenants the model keeps apart.
        let vms = [0u16, 1, 4095, 4096, 9999, u16::MAX];
        let pids = [0u16, 1, 300, u16::MAX];
        // Frames at the top of each simulated physical region (host data,
        // host and guest page-table nodes, guest data) and of the 36-bit
        // PPN field.
        let frame_tops = [0x41_0000_0000u64, 0x50_0000_0000, 0x40_4000_0000, 1 << 48];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 17
        };
        // Lookups, invalidations and `contains` calls on unwritten chunks.
        let mut cold_probes = [0u32; 3];
        let (mut cold_flushes, mut corrupts) = (0u32, 0u32);
        for step in 0..40_000u32 {
            let op = next() % 16;
            let r = next();
            let space = AddressSpace::new(
                VmId(vms[(r % 6) as usize]),
                ProcessId(pids[((r >> 3) % 4) as usize]),
            );
            let size = PageSize::POM_SIZES[((r >> 5) & 1) as usize];
            // Eight VPNs per set of one chunk keep that chunk's sets full;
            // one draw in 16 lands at the top of the 48-bit virtual address
            // space, and one probe in four anywhere below it.
            let vpn = if (r >> 6).is_multiple_of(16) {
                (1u64 << (48 - size.shift())) - 1 - (r >> 10) % 4
            } else if op >= 6 && (r >> 30).is_multiple_of(4) {
                (r >> 10) % (1u64 << (48 - size.shift()))
            } else {
                (r >> 10) % 8 * pom.n_sets(size) + (r >> 13) % 64
            };
            let va = Gva::new((vpn << size.shift()) | ((r >> 20) & 0xfff));
            let base = if (r >> 30).is_multiple_of(8) {
                Hpa::new(frame_tops[((r >> 33) % 4) as usize] - size.bytes())
            } else {
                Hpa::new(((r >> 33) % 4096) << size.shift())
            };
            let cold = pom.probe(space, va, size).1.is_none();
            match op {
                0..=5 => assert_eq!(
                    pom.insert(space, va, size, base),
                    model.insert(space, va, size, base),
                    "insert diverged at step {step}"
                ),
                6..=11 => assert_eq!(
                    pom.lookup(space, va, size),
                    model.lookup(space, va, size),
                    "lookup diverged at step {step}"
                ),
                12 => assert_eq!(
                    pom.invalidate_page(space, va, size),
                    model.invalidate_page(space, va, size),
                    "invalidate diverged at step {step}"
                ),
                13 => assert_eq!(
                    pom.contains(space, va, size),
                    model.contains(space, va, size),
                    "contains diverged at step {step}"
                ),
                14 if r.is_multiple_of(8) => {
                    let mut evicted = Vec::new();
                    pom.flush_vm(space.vm, &mut evicted);
                    assert_eq!(evicted, model.flush_vm(space.vm), "flush diverged at step {step}");
                    cold_flushes += u32::from(model.small.written().contains(&false));
                }
                15 if r.is_multiple_of(8) => {
                    assert_eq!(
                        pom.corrupt_entry(r, (r >> 7) as u32),
                        model.corrupt_entry(r, (r >> 7) as u32),
                        "corrupt diverged at step {step}"
                    );
                    corrupts += 1;
                }
                _ => {}
            }
            if cold && (6..=13).contains(&op) {
                cold_probes[match op {
                    12 => 1,
                    13 => 2,
                    _ => 0,
                }] += 1;
            }
            if step.is_multiple_of(1000) {
                for size in PageSize::POM_SIZES {
                    assert_eq!(pom.occupancy(size), model.occupancy(size), "occupancy at step {step}");
                }
                assert_eq!(pom.storage_bytes(), model.chunked_bytes(), "storage at step {step}");
            }
        }
        assert_eq!(*pom.stats(), model.stats);
        for size in PageSize::POM_SIZES {
            assert_eq!(pom.occupancy(size), model.occupancy(size));
        }
        assert_eq!(pom.storage_bytes(), model.chunked_bytes());
        let s = pom.stats();
        assert!(s.hits > 0 && s.misses > 0 && s.evictions > 0 && s.invalidations > 0, "{s:?}");
        // Written and unwritten chunks interleave in both partitions, and
        // every kind of probe and walk met unwritten ones.
        for p in [&model.small, &model.large] {
            let runs = p.written().windows(2).filter(|w| w[0] != w[1]).count();
            assert!(runs >= 8, "{runs} written/unwritten boundaries");
            let unwritten = p.written().iter().filter(|&&w| !w).count();
            assert!((8..56).contains(&unwritten), "{unwritten} of 64 chunks unwritten");
        }
        assert!(cold_probes.iter().all(|&n| n > 100), "{cold_probes:?}");
        assert!(cold_flushes > 100 && corrupts > 100, "{cold_flushes} flushes, {corrupts} corruptions");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_set_addr_within_partition(varaw in any::<u64>(), vm in 0u16..16) {
            let pom = PomTlb::new(PomTlbConfig::default());
            for size in PageSize::POM_SIZES {
                let addr = pom.set_addr(space(vm), Gva::new(varaw), size);
                prop_assert!(pom.owns_addr(addr));
                prop_assert_eq!(addr.raw() % 64, 0);
            }
        }

        #[test]
        fn prop_inserted_found_until_evicted(vpns in proptest::collection::vec(0u64..4096, 1..64)) {
            let mut pom = tiny();
            let s = space(0);
            for vpn in &vpns {
                pom.insert(s, Gva::new(vpn << 12), PageSize::Small4K, Hpa::new(vpn << 12));
                prop_assert!(pom.contains(s, Gva::new(vpn << 12), PageSize::Small4K));
            }
            prop_assert!(pom.occupancy(PageSize::Small4K) as usize <= 32 * 4);
        }
    }
}
