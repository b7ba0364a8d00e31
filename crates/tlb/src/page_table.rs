//! Real 4-level radix page tables allocated in simulated physical memory.
//!
//! The paper's Figure 1 walk geometry — up to 24 memory references per
//! virtualized translation — emerges from two actual radix tables here, not
//! from a hard-coded constant:
//!
//! * the **guest** table maps gVA → gPA and its nodes live at guest-physical
//!   addresses, so every guest PTE read needs a nested host walk;
//! * the **host** table maps gPA → hPA (including the guest table's own
//!   node pages, which a hypervisor must back with host memory like any
//!   other guest page).
//!
//! A walk of a 4 KB guest mapping therefore touches
//! `4 guest levels × (4 host PTEs + 1 guest PTE) + 4 host PTEs = 24`
//! distinct physical locations, each with a realistic address that contends
//! in the data caches.

use pomtlb_types::{Gpa, Gva, Hpa, PageSize};
use serde::{Deserialize, Serialize};

/// Whether translation is one-dimensional (bare metal) or two-dimensional
/// (guest under a hypervisor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WalkMode {
    /// Bare-metal: one 4-level table, up to 4 references per walk.
    Native,
    /// Virtualized: nested guest + host tables, up to 24 references.
    Virtualized,
}

/// A bump allocator over a region of (simulated) physical address space.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrameAlloc {
    next: u64,
    limit: u64,
}

impl FrameAlloc {
    /// Creates an allocator over `[base, base + size)`.
    pub fn new(base: u64, size: u64) -> FrameAlloc {
        FrameAlloc { next: base, limit: base + size }
    }

    /// Allocates `bytes` aligned to `bytes` (page-granular allocations).
    ///
    /// # Panics
    ///
    /// Panics if the region is exhausted — simulated physical memory is
    /// sized generously, so running out indicates a mis-sized experiment.
    pub fn alloc(&mut self, bytes: u64) -> u64 {
        debug_assert!(bytes.is_power_of_two());
        let aligned = (self.next + bytes - 1) & !(bytes - 1);
        assert!(
            aligned + bytes <= self.limit,
            "physical region exhausted: need {bytes} at {aligned:#x}, limit {:#x}",
            self.limit
        );
        self.next = aligned + bytes;
        aligned
    }

    /// Bytes handed out so far (for occupancy reports).
    pub fn used(&self) -> u64 {
        self.next
    }
}

/// Up to four physical addresses stored inline — one per radix level,
/// root-first. x86-64 tables are at most four levels deep, so a walk path
/// never heap-allocates (walks are the per-reference hot path; a `Vec`
/// here cost two allocations per walk, ~48 of them per virtualized miss).
///
/// Dereferences to a slice, so indexing, `len()`, iteration and range
/// comparisons all work as they did when this was a `Vec<u64>`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathLevels {
    addrs: [u64; 4],
    len: u8,
}

impl PathLevels {
    /// An empty path.
    pub const fn new() -> PathLevels {
        PathLevels { addrs: [0; 4], len: 0 }
    }

    /// Appends a level address.
    ///
    /// # Panics
    ///
    /// Panics past four levels — deeper radix tables are not modeled.
    pub fn push(&mut self, addr: u64) {
        self.addrs[self.len as usize] = addr;
        self.len += 1;
    }

    /// The populated prefix as a slice.
    pub fn as_slice(&self) -> &[u64] {
        &self.addrs[..self.len as usize]
    }
}

impl std::ops::Deref for PathLevels {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a PathLevels {
    type Item = &'a u64;
    type IntoIter = std::slice::Iter<'a, u64>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// The references a walk of one table makes, root-first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkPath {
    /// Physical address (in this table's own space) of each PTE read.
    /// Length 4 for a 4 KB leaf, 3 for a 2 MB leaf.
    pub pte_addrs: PathLevels,
    /// Base address of the node containing each PTE (same length).
    pub node_addrs: PathLevels,
    /// Base address the leaf maps to (next address space).
    pub target_base: u64,
    /// The mapping's page size.
    pub size: PageSize,
}

const NODE_BYTES: u64 = 4 << 10;
const PTE_BYTES: u64 = 8;
const IDX_MASK: u64 = 0x1ff;

/// Slot entries per radix node: 512 eight-byte PTEs in a 4 KB node page.
const NODE_SLOTS: usize = 512;

/// Slots per storage chunk: 32 four-byte words, 128 B, two host cache
/// lines. Tenant tables are mostly empty, so a node that holds a few
/// scattered mappings costs a few hundred bytes instead of 2 KiB, while
/// a full node pays only its 64-byte chunk table on top of its slots.
const CHUNK_SLOTS: usize = 32;

/// Chunk-table entries per node.
const NODE_CHUNKS: usize = NODE_SLOTS / CHUNK_SLOTS;

/// Nodes and chunks every table reserves room for when it is created. The
/// median consolidation tenant's table (about 7 nodes and 14 chunks) fits,
/// so mapping in the reference loop does not regrow the arena step by step.
const RESERVED_NODES: usize = 8;
const RESERVED_CHUNKS: usize = 16;

/// Path-cache entries. Direct-mapped on the low bits of the 2 MiB
/// prefix, so 32 consecutive prefixes (64 MiB of 4 KiB pages) never evict
/// each other, and the cache costs 512 B per table.
const PATH_CACHE_ENTRIES: usize = 32;

/// Virtual-address bits 21..48, the 2 MiB prefix the four radix levels
/// index above the PT slot (the table ignores higher bits).
const PREFIX_MASK: u64 = (1 << 27) - 1;

/// Slot-word tag distinguishing leaves from child links.
const LEAF_BIT: u32 = 1 << 31;

/// A leaf stores its target as a 4 KB frame number: every mapping is at
/// least 4 KB-aligned, so the low 12 bits carry nothing.
const FRAME_SHIFT: u32 = 12;

/// Shifts of the four x86-64 radix levels, root-first.
const LEVEL_SHIFTS: [u32; 4] = [39, 30, 21, 12];

/// One 4-level x86-style radix page table, stored as a node arena of
/// on-demand chunks.
///
/// Every node — root included — is an arena index; `node_phys[i]` holds
/// the simulated physical address of node `i`. A node's 512 four-byte
/// slot words live in 16 chunks of 32, each allocated on its first
/// non-zero write; until then the node's chunk-table entry names the
/// shared all-zero chunk 0, so a read is two indexed loads and no branch.
/// A slot word is one of:
///
/// * `0` — empty;
/// * a **child link**: the child's arena index plus one (the `+1` keeps
///   index 0, the root, distinguishable from "empty"), below 2^31;
/// * a **leaf**: the mapped target's 4 KB frame number with [`LEAF_BIT`]
///   (bit 31) set, so targets must lie below 2^43 — the simulated physical
///   regions end below 2^39.
///
/// Both bounds are `assert!`ed where a word is built: a release build that
/// truncated a frame number would silently serve another page's frame.
///
/// Translations and walks descend by indexed loads only — no hashing.
/// This is the simulator's hottest data structure: `translate_page` runs
/// for every simulated memory reference and a virtualized walk reads up to
/// 24 table locations. A direct-mapped path cache from a 2 MiB prefix to
/// the PDP, PD and PT nodes on its path lets a 4 KB translation, walk or
/// map skip the three interior levels; `map` fills it when it installs a
/// 4 KB leaf. A cached path cannot go stale: interior links are
/// append-only (`map` panics rather than put a leaf over a link or a link
/// over a leaf, and `unmap` clears only leaves), so nothing clears it. A
/// `clone` copies the cache together with the arena it indexes.
///
/// Node pages are allocated from the table's own [`FrameAlloc`]; the table
/// does not model PTE contents (permissions etc.), only the structure the
/// walker traverses.
#[derive(Debug, Clone)]
pub struct RadixPageTable {
    root: u64,
    /// Chunk table: node `i`'s slots `32 k .. 32 (k + 1)` live in chunk
    /// `chunk_of[i * NODE_CHUNKS + k]`.
    chunk_of: Vec<u32>,
    /// Slot words, 32 per chunk; chunk 0 is all-zero and never written.
    chunks: Vec<[u32; CHUNK_SLOTS]>,
    /// Physical address of each arena node, in creation order; index 0 is
    /// the root.
    node_phys: Vec<u64>,
    n_small: u64,
    n_large: u64,
    alloc: FrameAlloc,
    paths: PathCache,
}

impl RadixPageTable {
    /// Creates an empty table whose nodes come from `alloc`.
    pub fn new(mut alloc: FrameAlloc) -> RadixPageTable {
        let root = alloc.alloc(NODE_BYTES);
        let mut chunk_of = Vec::with_capacity(RESERVED_NODES * NODE_CHUNKS);
        chunk_of.resize(NODE_CHUNKS, 0);
        let mut chunks = Vec::with_capacity(RESERVED_CHUNKS);
        chunks.push([0; CHUNK_SLOTS]);
        let mut node_phys = Vec::with_capacity(RESERVED_NODES);
        node_phys.push(root);
        RadixPageTable {
            root,
            chunk_of,
            chunks,
            node_phys,
            n_small: 0,
            n_large: 0,
            alloc,
            paths: PathCache::EMPTY,
        }
    }

    /// Physical address of the root node.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Number of leaf mappings installed.
    pub fn mapping_count(&self) -> u64 {
        self.n_small + self.n_large
    }

    /// The word in `node`'s slot `idx`.
    #[inline]
    fn slot(&self, node: usize, idx: usize) -> u32 {
        self.chunks[self.chunk_of[node * NODE_CHUNKS + idx / CHUNK_SLOTS] as usize]
            [idx % CHUNK_SLOTS]
    }

    /// Writes `word` into `node`'s slot `idx`, allocating the slot's chunk
    /// if it is still the shared empty one.
    fn set_slot(&mut self, node: usize, idx: usize, word: u32) {
        let at = node * NODE_CHUNKS + idx / CHUNK_SLOTS;
        if self.chunk_of[at] == 0 {
            let chunk = self.chunks.len();
            assert!(chunk < u32::MAX as usize, "chunk index {chunk} exceeds 32 bits");
            self.chunks.push([0; CHUNK_SLOTS]);
            self.chunk_of[at] = chunk as u32;
        }
        self.chunks[self.chunk_of[at] as usize][idx % CHUNK_SLOTS] = word;
    }

    /// Allocates a fresh empty node and returns its arena index.
    fn add_node(&mut self) -> usize {
        let phys = self.alloc.alloc(NODE_BYTES);
        let idx = self.node_phys.len();
        assert!(idx < (LEAF_BIT - 1) as usize, "arena index {idx} exceeds 31-bit child links");
        self.node_phys.push(phys);
        self.chunk_of.resize(self.chunk_of.len() + NODE_CHUNKS, 0);
        idx
    }

    /// Installs a mapping `va → target_base` of `size`, creating interior
    /// nodes on demand. Re-mapping an existing page updates it in place.
    ///
    /// # Panics
    ///
    /// Panics on 1 GB pages (unused by the paper's workloads), if `va` or
    /// `target_base` are not size-aligned, or if the mapping would mix
    /// 4 KB and 2 MB pages inside one 2 MB-aligned window (the layouts
    /// this simulator generates keep the sizes in disjoint regions).
    pub fn map(&mut self, va: u64, size: PageSize, target_base: u64) {
        let node = self.leaf_node(va, size);
        self.set_leaf(node, va, size, target_base);
    }

    /// The arena index of the node that holds `va`'s `size` leaf slot —
    /// the PT node for a 4 KB page, the PD node for a 2 MB page —
    /// creating missing interior nodes. A 4 KB path enters the path cache.
    fn leaf_node(&mut self, va: u64, size: PageSize) -> usize {
        match size {
            PageSize::Small4K => {
                if let Some(path) = self.paths.get(va) {
                    return path[2] as usize;
                }
                let path = self.descend_creating(va, size, 3);
                self.paths.insert(va, path);
                path[2] as usize
            }
            PageSize::Large2M => self.descend_creating(va, size, 2)[1] as usize,
            PageSize::Huge1G => panic!("1 GB pages are not modeled"),
        }
    }

    /// The target of `va`'s leaf in `node` (the node [`Self::leaf_node`]
    /// returns for it), if one is installed.
    fn leaf_in(&self, node: usize, va: u64, size: PageSize) -> Option<u64> {
        let slot = self.slot(node, index(va, leaf_level(size)));
        (slot & LEAF_BIT != 0).then(|| leaf_target(slot))
    }

    /// Writes the leaf `va → target_base` into `node`, the node
    /// [`Self::leaf_node`] returns for `va`.
    fn set_leaf(&mut self, node: usize, va: u64, size: PageSize, target_base: u64) {
        assert_eq!(va & (size.bytes() - 1), 0, "va {va:#x} not {size}-aligned");
        assert_eq!(target_base & (size.bytes() - 1), 0, "target {target_base:#x} not {size}-aligned");
        assert!(
            target_base >> FRAME_SHIFT < LEAF_BIT as u64,
            "target {target_base:#x} exceeds the 31-bit leaf frame field"
        );
        let idx = index(va, leaf_level(size));
        let old = self.slot(node, idx);
        assert!(
            old == 0 || old & LEAF_BIT != 0,
            "2 MB mapping at {va:#x} would overwrite an interior node of 4 KB mappings"
        );
        if old == 0 {
            match size {
                PageSize::Small4K => self.n_small += 1,
                _ => self.n_large += 1,
            }
        }
        self.set_slot(node, idx, (target_base >> FRAME_SHIFT) as u32 | LEAF_BIT);
    }

    /// Descends from the root through `leaf_level` interior levels,
    /// creating missing nodes, and returns the arena indices of the nodes
    /// below the root on the way: PDP, PD and (for a 4 KB leaf) PT.
    fn descend_creating(&mut self, va: u64, size: PageSize, leaf_level: usize) -> [u32; 3] {
        let mut path = [0; 3];
        let mut node = 0usize;
        for (level, below) in path.iter_mut().enumerate().take(leaf_level) {
            let idx = index(va, level);
            let slot = self.slot(node, idx);
            node = if slot == 0 {
                let child = self.add_node();
                self.set_slot(node, idx, child as u32 + 1);
                child
            } else {
                assert!(
                    slot & LEAF_BIT == 0,
                    "mapping {va:#x} ({size}) under an existing larger-page leaf is not modeled"
                );
                (slot - 1) as usize
            };
            *below = node as u32;
        }
        path
    }

    /// Translates `va` (any offset), returning the mapped base and size.
    pub fn translate_page(&self, va: u64) -> Option<(u64, PageSize)> {
        if let Some(path) = self.paths.get(va) {
            let slot = self.slot(path[2] as usize, index(va, 3));
            return (slot != 0).then(|| (leaf_target(slot), PageSize::Small4K));
        }
        let mut node = 0usize;
        for level in 0..4 {
            let slot = self.slot(node, index(va, level));
            if slot == 0 {
                return None;
            }
            if slot & LEAF_BIT != 0 {
                // A leaf in the L2 node (level 2) is a 2 MB page; in the L1
                // node (level 3) a 4 KB page. Leaves never appear higher
                // (1 GB pages are not modeled).
                let size = if level == 3 { PageSize::Small4K } else { PageSize::Large2M };
                return Some((leaf_target(slot), size));
            }
            node = (slot - 1) as usize;
        }
        None
    }

    /// Translates `va` fully, carrying the in-page offset across.
    pub fn translate(&self, va: u64) -> Option<u64> {
        self.translate_page(va)
            .map(|(base, size)| base + (va & (size.bytes() - 1)))
    }

    /// The PTE references a hardware walk of `va` performs.
    ///
    /// Returns `None` for unmapped addresses.
    pub fn walk(&self, va: u64) -> Option<WalkPath> {
        if let Some([pdp, pd, pt]) = self.paths.get(va) {
            let slot = self.slot(pt as usize, index(va, 3));
            if slot == 0 {
                return None;
            }
            let nodes = [
                self.root,
                self.node_phys[pdp as usize],
                self.node_phys[pd as usize],
                self.node_phys[pt as usize],
            ];
            let ptes = std::array::from_fn(|level| nodes[level] + index(va, level) as u64 * PTE_BYTES);
            return Some(WalkPath {
                pte_addrs: PathLevels { addrs: ptes, len: 4 },
                node_addrs: PathLevels { addrs: nodes, len: 4 },
                target_base: leaf_target(slot),
                size: PageSize::Small4K,
            });
        }
        let mut pte_addrs = PathLevels::new();
        let mut node_addrs = PathLevels::new();
        let mut node = 0usize;
        for level in 0..4 {
            let idx = index(va, level);
            let slot = self.slot(node, idx);
            if slot == 0 {
                return None;
            }
            let phys = self.node_phys[node];
            node_addrs.push(phys);
            pte_addrs.push(phys + idx as u64 * PTE_BYTES);
            if slot & LEAF_BIT != 0 {
                let size = if level == 3 { PageSize::Small4K } else { PageSize::Large2M };
                return Some(WalkPath { pte_addrs, node_addrs, target_base: leaf_target(slot), size });
            }
            node = (slot - 1) as usize;
        }
        None
    }

    /// Removes a mapping (page unmap / remap during shootdown tests).
    /// Returns whether it existed. Interior nodes are retained, as real
    /// kernels retain them.
    pub fn unmap(&mut self, va: u64, size: PageSize) -> bool {
        let leaf_level = match size {
            PageSize::Small4K => 3,
            PageSize::Large2M => 2,
            PageSize::Huge1G => return false,
        };
        let mut node = 0usize;
        for level in 0..leaf_level {
            let slot = self.slot(node, index(va, level));
            if slot == 0 || slot & LEAF_BIT != 0 {
                return false;
            }
            node = (slot - 1) as usize;
        }
        let idx = index(va, leaf_level);
        if self.slot(node, idx) & LEAF_BIT == 0 {
            return false; // empty, or an interior node of the other size
        }
        self.set_slot(node, idx, 0);
        match size {
            PageSize::Small4K => self.n_small -= 1,
            PageSize::Large2M => self.n_large -= 1,
            PageSize::Huge1G => unreachable!(),
        }
        true
    }

    /// Bytes of node storage allocated so far, in simulated physical
    /// memory (4 KB per node).
    pub fn node_bytes(&self) -> u64 {
        self.node_phys.len() as u64 * NODE_BYTES
    }

    /// Bytes the table itself occupies in the simulator: chunk tables,
    /// chunks, the node address list and the path cache.
    pub fn storage_bytes(&self) -> u64 {
        (std::mem::size_of_val(self.chunk_of.as_slice())
            + std::mem::size_of_val(self.chunks.as_slice())
            + std::mem::size_of_val(self.node_phys.as_slice())
            + std::mem::size_of::<PathCache>()) as u64
    }
}

/// A direct-mapped cache from a 2 MiB prefix to the arena indices of the
/// PDP, PD and PT nodes on its path, private to one [`RadixPageTable`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct PathCache {
    entries: [PathEntry; PATH_CACHE_ENTRIES],
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PathEntry {
    /// The 2 MiB prefix; `u32::MAX` (above [`PREFIX_MASK`]) when empty.
    prefix: u32,
    nodes: [u32; 3],
}

impl PathCache {
    const EMPTY: PathCache =
        PathCache { entries: [PathEntry { prefix: u32::MAX, nodes: [0; 3] }; PATH_CACHE_ENTRIES] };

    #[inline]
    fn get(&self, va: u64) -> Option<[u32; 3]> {
        let prefix = prefix_of(va);
        let entry = &self.entries[prefix as usize % PATH_CACHE_ENTRIES];
        (entry.prefix == prefix).then_some(entry.nodes)
    }

    fn insert(&mut self, va: u64, nodes: [u32; 3]) {
        let prefix = prefix_of(va);
        self.entries[prefix as usize % PATH_CACHE_ENTRIES] = PathEntry { prefix, nodes };
    }
}

/// The slot index `va` selects in a node at radix `level` (0 = root).
#[inline]
fn index(va: u64, level: usize) -> usize {
    ((va >> LEVEL_SHIFTS[level]) & IDX_MASK) as usize
}

/// The radix level whose nodes hold `size` leaves: 3 (PT) for 4 KB pages,
/// 2 (PD) for 2 MB pages.
#[inline]
fn leaf_level(size: PageSize) -> usize {
    if size == PageSize::Small4K {
        3
    } else {
        2
    }
}

/// The 2 MiB prefix a path-cache entry is tagged with.
#[inline]
fn prefix_of(va: u64) -> u32 {
    ((va >> 21) & PREFIX_MASK) as u32
}

/// The base address a leaf slot word maps to.
#[inline]
fn leaf_target(slot: u32) -> u64 {
    ((slot & !LEAF_BIT) as u64) << FRAME_SHIFT
}

// ---------------------------------------------------------------------------
// Physical address-space layout for the two table pairs.
// ---------------------------------------------------------------------------

/// Guest-physical region for guest data frames.
const GPA_DATA_BASE: u64 = 0x0_4000_0000;
const GPA_DATA_SIZE: u64 = 0x40_0000_0000; // 256 GB
/// Guest-physical region for guest page-table nodes.
const GPA_NODE_BASE: u64 = 0x48_0000_0000;
const GPA_NODE_SIZE: u64 = 0x8_0000_0000; // 32 GB

/// Host-physical region for host data frames (guest pages' backing).
const HPA_DATA_BASE: u64 = 0x1_0000_0000;
const HPA_DATA_SIZE: u64 = 0x40_0000_0000;
/// Host-physical region for host page-table nodes.
const HPA_NODE_BASE: u64 = 0x48_0000_0000;
const HPA_NODE_SIZE: u64 = 0x8_0000_0000;

/// The complete translation state of one guest address space: a guest table,
/// the host (EPT-style) table backing it, and the frame allocators.
///
/// In [`WalkMode::Native`] only the host table is used (it maps the
/// process's virtual addresses straight to host-physical frames), giving the
/// 1-D walk the paper's Figure 3 compares against.
#[derive(Debug, Clone)]
pub struct VirtTables {
    mode: WalkMode,
    guest: Option<RadixPageTable>,
    host: RadixPageTable,
    guest_data: FrameAlloc,
    host_data: FrameAlloc,
}

/// Maximum number of disjoint physical regions (concurrent address
/// spaces / VMs) one simulation can host.
pub const MAX_REGIONS: u32 = 64;

impl VirtTables {
    /// Creates empty tables for the given mode in physical region 0.
    pub fn new(mode: WalkMode) -> VirtTables {
        Self::with_region(mode, 0)
    }

    /// Creates empty tables whose host-physical frames come from region
    /// `region` — distinct regions never overlap, so concurrent guests
    /// (SPECrate copies, multiple VMs) occupy disjoint host memory exactly
    /// as a hypervisor would arrange (§3.1: "we ensure that they do not
    /// share the physical memory space").
    ///
    /// # Panics
    ///
    /// Panics if `region >= MAX_REGIONS`.
    pub fn with_region(mode: WalkMode, region: u32) -> VirtTables {
        assert!(region < MAX_REGIONS, "region {region} out of range");
        let data_stride = HPA_DATA_SIZE / MAX_REGIONS as u64;
        let node_stride = HPA_NODE_SIZE / MAX_REGIONS as u64;
        let data_base = HPA_DATA_BASE + region as u64 * data_stride;
        let node_base = HPA_NODE_BASE + region as u64 * node_stride;
        let mut tables = VirtTables {
            mode,
            guest: (mode == WalkMode::Virtualized)
                .then(|| RadixPageTable::new(FrameAlloc::new(GPA_NODE_BASE, GPA_NODE_SIZE))),
            host: RadixPageTable::new(FrameAlloc::new(node_base, node_stride)),
            guest_data: FrameAlloc::new(GPA_DATA_BASE, GPA_DATA_SIZE),
            host_data: FrameAlloc::new(data_base, data_stride),
        };
        // The guest table's root page itself needs host backing.
        if let Some(guest) = &tables.guest {
            back_guest_nodes(guest, 0, &mut tables.host, &mut tables.host_data);
        }
        tables
    }

    /// The walk mode.
    pub fn mode(&self) -> WalkMode {
        self.mode
    }

    /// Ensures `gva` is mapped with `size`, allocating frames on first
    /// touch (demand paging at simulation-setup granularity). Returns the
    /// final host-physical base frame.
    ///
    /// # Panics
    ///
    /// Panics if `gva` is already mapped with a *different* size.
    pub fn ensure_mapped(&mut self, gva: Gva, size: PageSize) -> Hpa {
        if let Some((base, existing_size)) = self.lookup_page(gva) {
            assert_eq!(
                existing_size, size,
                "page at {gva} already mapped with {existing_size}, requested {size}"
            );
            return base;
        }
        let mut hpa = Hpa::new(0);
        self.map_run(gva.page_base(size), size, 1, |_, mapped| hpa = mapped);
        hpa
    }

    /// Maps the `count` consecutive `size` pages from `first` (which must
    /// be `size`-aligned) exactly as [`Self::ensure_mapped`] would one page
    /// at a time, and calls `mapped(page, hpa)` for each page, in order,
    /// as soon as it is mapped. A page that is already mapped keeps its
    /// frame.
    ///
    /// The run resolves each leaf node's path once — in the guest table
    /// and, for the guest frames it allocates, in the host table — and
    /// fills that node's leaf slots in a loop, where page-by-page mapping
    /// pays a failed lookup and two path-cache probes per page. Data
    /// frames, table nodes and the host frames backing new guest nodes
    /// come from the allocators in page-by-page order, so every address is
    /// the same.
    ///
    /// # Panics
    ///
    /// Panics on 1 GB pages, on a misaligned `first`, and where the run
    /// would mix 4 KB and 2 MB pages inside one 2 MB window.
    pub fn map_run(&mut self, first: Gva, size: PageSize, count: u64, mut mapped: impl FnMut(Gva, Hpa)) {
        assert_eq!(first.raw() & (size.bytes() - 1), 0, "run start {first} not {size}-aligned");
        let VirtTables { mode, guest, host, guest_data, host_data } = self;
        let (shift, level) = (size.shift(), leaf_level(size));
        // Addresses that agree above these bits share a leaf node.
        let node_shift = shift + 9;
        let mut done = 0;
        while done < count {
            let va = first.raw() + (done << shift);
            let n = (count - done).min((NODE_SLOTS - index(va, level)) as u64);
            let pages = (0..n).map(|k| va + (k << shift));
            match mode {
                WalkMode::Native => {
                    let node = host.leaf_node(va, size);
                    for page in pages {
                        let hpa = host.leaf_in(node, page, size).unwrap_or_else(|| {
                            let hpa = host_data.alloc(size.bytes());
                            host.set_leaf(node, page, size, hpa);
                            hpa
                        });
                        mapped(Gva::new(page), Hpa::new(hpa));
                    }
                }
                WalkMode::Virtualized => {
                    let guest = guest.as_mut().expect("virtualized mode has a guest table");
                    let first_new = guest.node_phys.len();
                    let node = guest.leaf_node(va, size);
                    // New guest nodes get their host frames right after the
                    // first page's own, where page-by-page mapping puts them.
                    let mut unbacked = guest.node_phys.len() > first_new;
                    // The host leaf node of the last guest frame mapped.
                    let mut host_leaf: Option<(u64, usize)> = None;
                    for page in pages {
                        let hpa = match guest.leaf_in(node, page, size) {
                            Some(gpa) => host.translate(gpa).expect("every guest frame is host-backed"),
                            None => {
                                let gpa = guest_data.alloc(size.bytes());
                                guest.set_leaf(node, page, size, gpa);
                                let hpa = host_data.alloc(size.bytes());
                                let host_node = match host_leaf {
                                    Some((prefix, hn)) if prefix == gpa >> node_shift => hn,
                                    _ => host.leaf_node(gpa, size),
                                };
                                host.set_leaf(host_node, gpa, size, hpa);
                                host_leaf = Some((gpa >> node_shift, host_node));
                                if unbacked {
                                    back_guest_nodes(guest, first_new, host, host_data);
                                    unbacked = false;
                                    // Backing may have evicted the data
                                    // path from the host path cache; the
                                    // next page looks it up again, as
                                    // page-by-page mapping would.
                                    host_leaf = None;
                                }
                                hpa
                            }
                        };
                        mapped(Gva::new(page), Hpa::new(hpa));
                    }
                }
            }
            done += n;
        }
    }

    /// The host-physical base + size of the page containing `gva`, if
    /// mapped.
    pub fn lookup_page(&self, gva: Gva) -> Option<(Hpa, PageSize)> {
        match self.mode {
            WalkMode::Native => self
                .host
                .translate_page(gva.raw())
                .map(|(base, size)| (Hpa::new(base), size)),
            WalkMode::Virtualized => {
                let guest = self.guest.as_ref().expect("virtualized mode has a guest table");
                let (gpa_base, size) = guest.translate_page(gva.raw())?;
                let hpa_base = self
                    .host
                    .translate(gpa_base)
                    .expect("every guest frame is host-backed");
                Some((Hpa::new(hpa_base), size))
            }
        }
    }

    /// Full translation of `gva` including the page offset.
    pub fn translate(&self, gva: Gva) -> Option<Hpa> {
        let (base, size) = self.lookup_page(gva)?;
        Some(Hpa::new(base.raw() + gva.page_offset(size)))
    }

    /// The guest-dimension walk path of `gva` (addresses are gPA).
    ///
    /// `None` in native mode or for unmapped addresses.
    pub fn guest_walk(&self, gva: Gva) -> Option<WalkPath> {
        self.guest.as_ref()?.walk(gva.raw())
    }

    /// The host-dimension walk path of `gpa` (addresses are hPA). In
    /// native mode this is the 1-D walk of a virtual address.
    pub fn host_walk(&self, gpa: Gpa) -> Option<WalkPath> {
        self.host.walk(gpa.raw())
    }

    /// Host translation of a guest-physical address (no walk, for
    /// bookkeeping such as PSC fills).
    pub fn host_translate(&self, gpa: Gpa) -> Option<Hpa> {
        self.host.translate(gpa.raw()).map(Hpa::new)
    }

    /// Guest-dimension page translation: the guest-physical base frame of
    /// the page containing `gva`. In native mode the address is its own
    /// "guest-physical" (there is only one dimension) — this is what a
    /// software TSB handler stores per dimension.
    pub fn guest_translate_page(&self, gva: Gva) -> Option<(Gpa, PageSize)> {
        match self.mode {
            WalkMode::Native => self
                .host
                .translate_page(gva.raw())
                .map(|(_, size)| (Gpa::new(gva.page_base(size).raw()), size)),
            WalkMode::Virtualized => self
                .guest
                .as_ref()
                .expect("virtualized mode has a guest table")
                .translate_page(gva.raw())
                .map(|(base, size)| (Gpa::new(base), size)),
        }
    }

    /// Unmaps `gva`, for shootdown tests. Returns whether it was mapped.
    pub fn unmap(&mut self, gva: Gva, size: PageSize) -> bool {
        match self.mode {
            WalkMode::Native => self.host.unmap(gva.page_base(size).raw(), size),
            WalkMode::Virtualized => self
                .guest
                .as_mut()
                .expect("virtualized mode has a guest table")
                .unmap(gva.page_base(size).raw(), size),
        }
    }

    /// Total page-table node bytes across both dimensions.
    pub fn node_bytes(&self) -> u64 {
        self.host.node_bytes() + self.guest.as_ref().map_or(0, |g| g.node_bytes())
    }

    /// Bytes both dimensions' arenas occupy in the simulator
    /// ([`RadixPageTable::storage_bytes`]).
    pub fn storage_bytes(&self) -> u64 {
        self.host.storage_bytes() + self.guest.as_ref().map_or(0, RadixPageTable::storage_bytes)
    }
}

/// Backs `guest`'s node pages from arena index `first` on with host
/// frames, in creation order — the hypervisor must back them like any
/// other guest page.
fn back_guest_nodes(guest: &RadixPageTable, first: usize, host: &mut RadixPageTable, host_data: &mut FrameAlloc) {
    for &node_gpa in &guest.node_phys[first..] {
        let hpa = host_data.alloc(NODE_BYTES);
        host.map(node_gpa, PageSize::Small4K, hpa);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_alloc_aligns() {
        let mut a = FrameAlloc::new(0x1000, 1 << 30);
        let x = a.alloc(4096);
        assert_eq!(x % 4096, 0);
        let y = a.alloc(2 << 20);
        assert_eq!(y % (2 << 20), 0);
        assert!(y > x);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn frame_alloc_exhausts() {
        let mut a = FrameAlloc::new(0, 8192);
        a.alloc(4096);
        a.alloc(4096);
        a.alloc(4096);
    }

    #[test]
    fn map_then_translate_4k() {
        let mut t = RadixPageTable::new(FrameAlloc::new(0x10_0000, 1 << 30));
        t.map(0x7fff_0000_1000, PageSize::Small4K, 0x1234_5000);
        assert_eq!(t.translate(0x7fff_0000_1abc), Some(0x1234_5abc));
        assert_eq!(t.translate(0x7fff_0000_2000), None);
    }

    #[test]
    fn map_then_translate_2m() {
        let mut t = RadixPageTable::new(FrameAlloc::new(0x10_0000, 1 << 30));
        t.map(0x4000_0000, PageSize::Large2M, 0x8000_0000);
        assert_eq!(t.translate(0x4000_0000 + 0x12345), Some(0x8000_0000 + 0x12345));
    }

    #[test]
    fn walk_4k_has_four_levels() {
        let mut t = RadixPageTable::new(FrameAlloc::new(0x10_0000, 1 << 30));
        t.map(0x5000_0000_0000, PageSize::Small4K, 0x9000);
        let w = t.walk(0x5000_0000_0123).unwrap();
        assert_eq!(w.pte_addrs.len(), 4);
        assert_eq!(w.node_addrs.len(), 4);
        assert_eq!(w.size, PageSize::Small4K);
        assert_eq!(w.target_base, 0x9000);
        assert_eq!(w.node_addrs[0], t.root());
        // Every PTE lies inside its node.
        for (pte, node) in w.pte_addrs.iter().zip(&w.node_addrs) {
            assert!(pte >= node && *pte < node + 4096);
            assert_eq!((pte - node) % 8, 0);
        }
    }

    #[test]
    fn walk_2m_has_three_levels() {
        let mut t = RadixPageTable::new(FrameAlloc::new(0x10_0000, 1 << 30));
        t.map(0x5000_0020_0000, PageSize::Large2M, 0x4000_0000);
        let w = t.walk(0x5000_0020_1000).unwrap();
        assert_eq!(w.pte_addrs.len(), 3);
        assert_eq!(w.size, PageSize::Large2M);
    }

    #[test]
    fn adjacent_pages_share_nodes() {
        let mut t = RadixPageTable::new(FrameAlloc::new(0x10_0000, 1 << 30));
        t.map(0x1000_0000_0000, PageSize::Small4K, 0x1000);
        let nodes_before = t.node_bytes();
        t.map(0x1000_0000_1000, PageSize::Small4K, 0x2000);
        assert_eq!(t.node_bytes(), nodes_before, "same L1 node must be reused");
        let w1 = t.walk(0x1000_0000_0000).unwrap();
        let w2 = t.walk(0x1000_0000_1000).unwrap();
        assert_eq!(w1.node_addrs, w2.node_addrs);
        assert_ne!(w1.pte_addrs[3], w2.pte_addrs[3]);
        assert_eq!(w1.pte_addrs[..3], w2.pte_addrs[..3]);
    }

    #[test]
    fn distant_pages_use_distinct_nodes() {
        let mut t = RadixPageTable::new(FrameAlloc::new(0x10_0000, 1 << 30));
        t.map(0x1000_0000_0000, PageSize::Small4K, 0x1000);
        t.map(0x2000_0000_0000, PageSize::Small4K, 0x2000);
        let w1 = t.walk(0x1000_0000_0000).unwrap();
        let w2 = t.walk(0x2000_0000_0000).unwrap();
        assert_eq!(w1.node_addrs[0], w2.node_addrs[0], "shared root");
        assert_ne!(w1.node_addrs[1], w2.node_addrs[1]);
    }

    #[test]
    fn unmap_removes_only_leaf() {
        let mut t = RadixPageTable::new(FrameAlloc::new(0x10_0000, 1 << 30));
        t.map(0x1000, PageSize::Small4K, 0x9000);
        assert!(t.unmap(0x1000, PageSize::Small4K));
        assert_eq!(t.translate(0x1000), None);
        assert!(!t.unmap(0x1000, PageSize::Small4K));
    }

    #[test]
    fn remap_after_unmap_reuses_nodes() {
        let mut t = RadixPageTable::new(FrameAlloc::new(0x10_0000, 1 << 30));
        t.map(0x1000, PageSize::Small4K, 0x9000);
        let nodes_before = t.node_bytes();
        assert!(t.unmap(0x1000, PageSize::Small4K));
        t.map(0x1000, PageSize::Small4K, 0xa000);
        assert_eq!(t.node_bytes(), nodes_before, "interior chain is retained");
        assert_eq!(t.translate(0x1000), Some(0xa000));
        assert_eq!(t.mapping_count(), 1);
    }

    #[test]
    fn mapping_count_tracks_both_sizes() {
        let mut t = RadixPageTable::new(FrameAlloc::new(0x10_0000, 1 << 30));
        t.map(0x1000_0000_0000, PageSize::Small4K, 0x1000);
        t.map(0x2000_0020_0000, PageSize::Large2M, 0x4000_0000);
        assert_eq!(t.mapping_count(), 2);
        // Re-mapping in place does not double-count.
        t.map(0x1000_0000_0000, PageSize::Small4K, 0x3000);
        assert_eq!(t.mapping_count(), 2);
        assert!(t.unmap(0x2000_0020_0000, PageSize::Large2M));
        assert_eq!(t.mapping_count(), 1);
    }

    #[test]
    fn unmap_with_wrong_size_is_a_no_op() {
        let mut t = RadixPageTable::new(FrameAlloc::new(0x10_0000, 1 << 30));
        t.map(0x5000_0000_0000, PageSize::Small4K, 0x9000);
        assert!(!t.unmap(0x5000_0000_0000, PageSize::Large2M));
        assert_eq!(t.translate(0x5000_0000_0000), Some(0x9000));
        t.map(0x6000_0020_0000, PageSize::Large2M, 0x4000_0000);
        assert!(!t.unmap(0x6000_0020_0000, PageSize::Small4K));
        assert_eq!(t.translate_page(0x6000_0020_0000), Some((0x4000_0000, PageSize::Large2M)));
    }

    #[test]
    fn virtualized_round_trip() {
        let mut vt = VirtTables::new(WalkMode::Virtualized);
        let gva = Gva::new(0x1000_0000_0000);
        let hpa = vt.ensure_mapped(gva, PageSize::Small4K);
        assert_eq!(vt.translate(gva), Some(hpa));
        assert_eq!(
            vt.translate(Gva::new(gva.raw() + 0x7ff)),
            Some(Hpa::new(hpa.raw() + 0x7ff))
        );
        // Idempotent.
        assert_eq!(vt.ensure_mapped(gva, PageSize::Small4K), hpa);
    }

    #[test]
    fn native_round_trip() {
        let mut vt = VirtTables::new(WalkMode::Native);
        let gva = Gva::new(0x2000_0000_0000);
        let hpa = vt.ensure_mapped(gva, PageSize::Large2M);
        assert_eq!(vt.lookup_page(gva), Some((hpa, PageSize::Large2M)));
        assert!(vt.guest_walk(gva).is_none(), "no guest dimension natively");
        let w = vt.host_walk(Gpa::new(gva.raw())).unwrap();
        assert_eq!(w.pte_addrs.len(), 3);
    }

    #[test]
    fn guest_ptes_are_host_backed() {
        let mut vt = VirtTables::new(WalkMode::Virtualized);
        let gva = Gva::new(0x1000_0000_0000);
        vt.ensure_mapped(gva, PageSize::Small4K);
        let gw = vt.guest_walk(gva).expect("guest walk exists");
        assert_eq!(gw.pte_addrs.len(), 4);
        for pte_gpa in &gw.pte_addrs {
            let hw = vt.host_walk(Gpa::new(*pte_gpa));
            assert!(hw.is_some(), "guest PTE at gPA {pte_gpa:#x} must be host-walkable");
            assert!(vt.host_translate(Gpa::new(*pte_gpa)).is_some());
        }
    }

    #[test]
    fn twenty_four_reference_geometry() {
        // Figure 1: 4 guest levels x (4 host + 1 guest) + 4 final host = 24.
        let mut vt = VirtTables::new(WalkMode::Virtualized);
        let gva = Gva::new(0x1000_0000_0000);
        vt.ensure_mapped(gva, PageSize::Small4K);
        let gw = vt.guest_walk(gva).unwrap();
        let mut refs = 0;
        for pte_gpa in &gw.pte_addrs {
            refs += vt.host_walk(Gpa::new(*pte_gpa)).unwrap().pte_addrs.len(); // nested host
            refs += 1; // the guest PTE itself
        }
        let (gpa_base, _) = vt
            .guest
            .as_ref()
            .unwrap()
            .translate_page(gva.raw())
            .unwrap();
        refs += vt.host_walk(Gpa::new(gpa_base)).unwrap().pte_addrs.len();
        assert_eq!(refs, 24);
    }

    #[test]
    #[should_panic(expected = "already mapped")]
    fn remap_with_different_size_panics() {
        let mut vt = VirtTables::new(WalkMode::Native);
        vt.ensure_mapped(Gva::new(0x4000_0000), PageSize::Large2M);
        vt.ensure_mapped(Gva::new(0x4000_0000), PageSize::Small4K);
    }

    #[test]
    fn unmap_breaks_translation() {
        let mut vt = VirtTables::new(WalkMode::Virtualized);
        let gva = Gva::new(0x1000_0000_0000);
        vt.ensure_mapped(gva, PageSize::Small4K);
        assert!(vt.unmap(gva, PageSize::Small4K));
        assert_eq!(vt.translate(gva), None);
    }

    #[test]
    fn a_clone_diverges_without_touching_its_parent() {
        for mode in [WalkMode::Native, WalkMode::Virtualized] {
            let mut parent = VirtTables::new(mode);
            let pages: Vec<Gva> = (0..600).map(|i| Gva::new(0x1000_0000_0000 + (i << 12))).collect();
            parent.map_run(pages[0], PageSize::Small4K, 600, |_, _| {});
            let mut child = parent.clone();
            // Every translation and walk of the parent's pages, and its storage.
            let state = |vt: &VirtTables| {
                let pages: Vec<_> = pages
                    .iter()
                    .map(|&page| {
                        let (gpa, _) = vt.guest_translate_page(page).expect("mapped");
                        (vt.translate(page), vt.guest_walk(page), vt.host_walk(gpa))
                    })
                    .collect();
                (pages, vt.storage_bytes(), vt.node_bytes())
            };
            let before = state(&parent);

            // The child remaps every third page to a fresh frame and maps a
            // page far from the rest, which needs new nodes.
            for &page in pages.iter().step_by(3) {
                assert!(child.unmap(page, PageSize::Small4K));
                child.ensure_mapped(page, PageSize::Small4K);
            }
            let far = Gva::new(0x7000_0000_0000);
            child.ensure_mapped(far, PageSize::Small4K);

            assert!(state(&parent) == before, "{mode:?}: the parent changed");
            assert_eq!(parent.translate(far), None, "{mode:?}: the parent gained the child's page");
            assert!(child.node_bytes() > parent.node_bytes());
            for (i, &page) in pages.iter().enumerate() {
                let differs = child.translate(page) != parent.translate(page);
                assert_eq!(differs, i % 3 == 0, "{mode:?}: page {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "31-bit leaf frame field")]
    fn target_beyond_the_leaf_frame_field_is_rejected() {
        let mut t = RadixPageTable::new(FrameAlloc::new(0x10_0000, 1 << 30));
        t.map(0x1000, PageSize::Small4K, 1 << 43);
    }

    #[test]
    fn storage_is_four_bytes_per_slot() {
        // A node costs its 16-entry chunk table and its address (72 B); a
        // chunk of 32 four-byte slots (128 B) exists once one of its slots
        // is non-zero, beside the shared empty chunk; the path cache is
        // 512 B.
        let node = |nodes: u64, chunks: u64| nodes * 72 + (1 + chunks) * 128 + 512;
        let mut t = RadixPageTable::new(FrameAlloc::new(0x10_0000, 1 << 30));
        assert_eq!(t.storage_bytes(), node(1, 0), "root node, the empty chunk, the path cache");
        t.map(0x1000_0000_0000, PageSize::Small4K, 0x1000);
        assert_eq!(t.storage_bytes(), node(4, 4), "one chunk per level holds the path");
        t.map(0x1000_0000_1000, PageSize::Small4K, 0x2000);
        assert_eq!(t.storage_bytes(), node(4, 4), "slot 1 shares slot 0's chunk");
        t.map(0x1000_0002_0000, PageSize::Small4K, 0x3000);
        assert_eq!(t.storage_bytes(), node(4, 5), "slot 32 starts the next chunk");
        for page in 0..512 {
            t.map(0x1000_0000_0000 + (page << 12), PageSize::Small4K, page << 12);
        }
        // A full node: 2,048 B of slots + 72 B, against 2,056 B flat.
        assert_eq!(t.storage_bytes(), node(4, 3 + 16));
    }

    #[test]
    fn only_4k_mappings_enter_the_path_cache() {
        let mut t = RadixPageTable::new(FrameAlloc::new(0x10_0000, 1 << 30));
        t.map(0x4000_0000, PageSize::Large2M, 0x8000_0000);
        assert!(t.paths.entries.iter().all(|e| e.prefix == u32::MAX), "2 MB leaves are not cached");
        assert_eq!(t.translate(0x4000_1234), Some(0x8000_1234));

        t.map(0x5000_0000_0000, PageSize::Small4K, 0x9000);
        let path = t.paths.get(0x5000_001f_f123).expect("the 4 KB leaf cached its 2 MB prefix");
        let w = t.walk(0x5000_0000_0000).unwrap();
        assert_eq!(path.map(|n| t.node_phys[n as usize]), [w.node_addrs[1], w.node_addrs[2], w.node_addrs[3]]);
        // A cached prefix still reports its unmapped pages as unmapped.
        assert_eq!(t.translate(0x5000_0000_1000), None);
        assert_eq!(t.walk(0x5000_0000_1000), None);
        assert!(!t.unmap(0x5000_0000_1000, PageSize::Small4K));
    }

    #[test]
    #[should_panic(expected = "under an existing larger-page leaf")]
    fn a_4k_mapping_under_a_2m_leaf_panics() {
        let mut t = RadixPageTable::new(FrameAlloc::new(0x10_0000, 1 << 30));
        t.map(0x4000_0000, PageSize::Large2M, 0x8000_0000);
        t.map(0x4000_1000, PageSize::Small4K, 0x9000);
    }

    #[test]
    #[should_panic(expected = "would overwrite an interior node")]
    fn a_2m_mapping_over_a_cached_4k_path_panics() {
        let mut t = RadixPageTable::new(FrameAlloc::new(0x10_0000, 1 << 30));
        t.map(0x4000_1000, PageSize::Small4K, 0x9000);
        t.map(0x4000_0000, PageSize::Large2M, 0x8000_0000);
    }

    /// The flat `u64`-slot radix table the chunked 4-byte slots replaced —
    /// a leaf holds the full target address with bit 63 set — kept as an
    /// independent model of their behaviour. It also notes which 32-slot
    /// chunks were ever written, which fixes the chunked table's storage.
    struct RefTable {
        slots: Vec<u64>,
        node_phys: Vec<u64>,
        n_mapped: u64,
        alloc: FrameAlloc,
        written: Vec<bool>,
    }

    impl RefTable {
        const LEAF: u64 = 1 << 63;

        fn new(mut alloc: FrameAlloc) -> RefTable {
            let root = alloc.alloc(NODE_BYTES);
            let written = vec![false; NODE_CHUNKS];
            RefTable { slots: vec![0; NODE_SLOTS], node_phys: vec![root], n_mapped: 0, alloc, written }
        }

        /// Chunk tables, written chunks plus the shared empty one, node
        /// addresses and the path cache.
        fn chunked_bytes(&self) -> u64 {
            let chunks = 1 + self.written.iter().filter(|&&w| w).count();
            (self.node_phys.len() * (NODE_CHUNKS * 4 + 8) + chunks * CHUNK_SLOTS * 4 + 512) as u64
        }

        fn set(&mut self, pos: usize, word: u64) {
            self.slots[pos] = word;
            self.written[pos / CHUNK_SLOTS] |= word != 0;
        }

        fn pos(node: usize, va: u64, level: usize) -> usize {
            node * NODE_SLOTS + ((va >> LEVEL_SHIFTS[level]) & IDX_MASK) as usize
        }

        fn map(&mut self, va: u64, size: PageSize, target: u64) {
            let leaf_level = if size == PageSize::Small4K { 3 } else { 2 };
            let mut node = 0;
            for level in 0..leaf_level {
                let pos = Self::pos(node, va, level);
                if self.slots[pos] == 0 {
                    self.node_phys.push(self.alloc.alloc(NODE_BYTES));
                    self.slots.resize(self.slots.len() + NODE_SLOTS, 0);
                    self.written.resize(self.written.len() + NODE_CHUNKS, false);
                    // The new node's index plus one.
                    self.set(pos, self.node_phys.len() as u64);
                }
                node = (self.slots[pos] - 1) as usize;
            }
            let pos = Self::pos(node, va, leaf_level);
            if self.slots[pos] == 0 {
                self.n_mapped += 1;
            }
            self.set(pos, target | Self::LEAF);
        }

        fn walk(&self, va: u64) -> Option<WalkPath> {
            let (mut pte_addrs, mut node_addrs, mut node) = (PathLevels::new(), PathLevels::new(), 0);
            for level in 0..4 {
                let pos = Self::pos(node, va, level);
                let slot = self.slots[pos];
                if slot == 0 {
                    return None;
                }
                let phys = self.node_phys[node];
                node_addrs.push(phys);
                pte_addrs.push(phys + (pos - node * NODE_SLOTS) as u64 * PTE_BYTES);
                if slot & Self::LEAF != 0 {
                    let size = if level == 3 { PageSize::Small4K } else { PageSize::Large2M };
                    return Some(WalkPath { pte_addrs, node_addrs, target_base: slot & !Self::LEAF, size });
                }
                node = (slot - 1) as usize;
            }
            None
        }

        fn translate(&self, va: u64) -> Option<u64> {
            self.walk(va).map(|w| w.target_base + (va & (w.size.bytes() - 1)))
        }

        fn unmap(&mut self, va: u64, size: PageSize) -> bool {
            let leaf_level = if size == PageSize::Small4K { 3 } else { 2 };
            let mut node = 0;
            for level in 0..leaf_level {
                let slot = self.slots[Self::pos(node, va, level)];
                if slot == 0 || slot & Self::LEAF != 0 {
                    return false;
                }
                node = (slot - 1) as usize;
            }
            let pos = Self::pos(node, va, leaf_level);
            if self.slots[pos] & Self::LEAF == 0 {
                return false;
            }
            self.set(pos, 0);
            self.n_mapped -= 1;
            true
        }
    }

    /// Replays a seeded map/unmap/translate/walk script against the chunked
    /// 4-byte slot table and the `u64`-slot reference model, asserting
    /// identical results, mapping counts, node allocation and storage.
    #[test]
    fn packed_slots_match_u64_reference() {
        // Node pages at the top of the host page-table region, so every
        // child link and walk address is as large as the layout allows.
        let alloc = FrameAlloc::new(HPA_NODE_BASE + HPA_NODE_SIZE - (64 << 20), 64 << 20);
        let mut t = RadixPageTable::new(alloc.clone());
        let mut model = RefTable::new(alloc);
        // Targets at the top of each simulated physical region.
        let tops = [
            GPA_DATA_BASE + GPA_DATA_SIZE,
            GPA_NODE_BASE + GPA_NODE_SIZE,
            HPA_DATA_BASE + HPA_DATA_SIZE,
            HPA_NODE_BASE + HPA_NODE_SIZE,
        ];
        // 4 KB and 2 MB pages live in disjoint 1 GB windows (the table
        // does not model mixing them under one 2 MB prefix); one window of
        // each sits at the top of the 48-bit virtual address space.
        let windows = [(0x1000_0000_0000u64, 0x2000_0000_0000u64), (0x7fff_0000_0000, 0x7fff_8000_0000)];
        let mut x = 0x51ed_2701_f3a5_c4b9u64;
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 17
        };
        for step in 0..30_000u32 {
            let op = next() % 64;
            let r = next();
            let size = PageSize::POM_SIZES[(r & 1) as usize];
            let (small_base, large_base) = windows[((r >> 1) % 2) as usize];
            let va = match size {
                PageSize::Small4K => small_base + (((r >> 2) % 4096) << 12),
                _ => large_base + (((r >> 2) % 256) << 21),
            };
            let target = if (r >> 20).is_multiple_of(8) {
                tops[((r >> 23) % 4) as usize] - size.bytes()
            } else {
                ((r >> 23) % 4096) << size.shift()
            };
            let probe = va + (r >> 40) % size.bytes();
            match op {
                0..=23 => {
                    t.map(va, size, target);
                    model.map(va, size, target);
                }
                24..=31 => assert_eq!(t.unmap(va, size), model.unmap(va, size), "unmap diverged at step {step}"),
                32..=46 => assert_eq!(t.translate(probe), model.translate(probe), "translate at step {step}"),
                _ => assert_eq!(t.walk(probe), model.walk(probe), "walk diverged at step {step}"),
            }
            if step.is_multiple_of(1000) {
                assert_eq!(t.mapping_count(), model.n_mapped, "mapping count at step {step}");
                assert_eq!(t.node_phys, model.node_phys, "node allocation at step {step}");
                assert_eq!(t.storage_bytes(), model.chunked_bytes(), "storage at step {step}");
            }
        }
        assert_eq!(t.mapping_count(), model.n_mapped);
        assert!(t.mapping_count() > 1000);
        assert_eq!(t.node_phys, model.node_phys);
        assert_eq!(t.storage_bytes(), model.chunked_bytes());
        let flat = model.node_phys.len() as u64 * (NODE_SLOTS as u64 * 4 + 8);
        assert!(t.storage_bytes() < flat, "{} chunked bytes against {flat} flat", t.storage_bytes());
    }

    /// `ensure_mapped` as it was before runs: a lookup, then a guest and a
    /// host `map` per page, then host frames for the guest nodes that the
    /// guest `map` created.
    fn map_page_by_page(vt: &mut VirtTables, gva: Gva, size: PageSize) -> Hpa {
        if let Some((base, existing)) = vt.lookup_page(gva) {
            assert_eq!(existing, size);
            return base;
        }
        let va = gva.page_base(size).raw();
        let hpa = match vt.guest.as_mut() {
            None => {
                let hpa = vt.host_data.alloc(size.bytes());
                vt.host.map(va, size, hpa);
                hpa
            }
            Some(guest) => {
                let gpa = vt.guest_data.alloc(size.bytes());
                let first_new = guest.node_phys.len();
                guest.map(va, size, gpa);
                let hpa = vt.host_data.alloc(size.bytes());
                vt.host.map(gpa, size, hpa);
                back_guest_nodes(guest, first_new, &mut vt.host, &mut vt.host_data);
                hpa
            }
        };
        Hpa::new(hpa)
    }

    /// Everything two tables built by different mapping paths must agree
    /// on besides their translations: node and slot storage, mapping
    /// counts and both data allocators, and with `caches` the path caches.
    fn assert_same_state(run: &VirtTables, model: &VirtTables, caches: bool, step: u32) {
        assert_eq!(run.node_bytes(), model.node_bytes(), "node bytes at step {step}");
        assert_eq!(run.storage_bytes(), model.storage_bytes(), "storage at step {step}");
        assert_eq!(run.host.mapping_count(), model.host.mapping_count(), "host mappings at step {step}");
        let guest_counts = |vt: &VirtTables| vt.guest.as_ref().map(RadixPageTable::mapping_count);
        assert_eq!(guest_counts(run), guest_counts(model), "guest mappings at step {step}");
        assert_eq!(run.guest_data.used(), model.guest_data.used(), "guest frames at step {step}");
        assert_eq!(run.host_data.used(), model.host_data.used(), "host frames at step {step}");
        if caches {
            assert!(run.host.paths == model.host.paths, "host path cache at step {step}");
            let guest_paths = |vt: &VirtTables| vt.guest.as_ref().map(|g| g.paths.clone());
            assert!(guest_paths(run) == guest_paths(model), "guest path cache at step {step}");
        }
    }

    /// Seeded runs through `map_run`, interleaved with single-page
    /// `ensure_mapped` calls, against the same pages mapped one at a time
    /// the way `ensure_mapped` did before runs. Runs start mid-node, cross
    /// leaf-node, PD and PDP boundaries in both page sizes, and overlap
    /// pages mapped earlier; every page must get the same frame, guest
    /// walk and host walk, and the tables the same state. A run of fresh
    /// pages — what prepopulation maps — also leaves the path caches as
    /// page-by-page mapping does; a run over pages mapped earlier may
    /// leave their path cached where a lookup would not have, which no
    /// translation can see.
    #[test]
    fn map_run_matches_page_by_page_mapping() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 17
        };
        // The guest's first data frame and first node share a host
        // path-cache slot under different 2 MiB prefixes, so backing the
        // nodes a fresh run's first page creates evicts the host path of
        // that page's frame: the first run below starts there.
        assert_eq!(prefix_of(GPA_DATA_BASE) as usize % PATH_CACHE_ENTRIES, prefix_of(GPA_NODE_BASE) as usize % PATH_CACHE_ENTRIES);
        assert_ne!(prefix_of(GPA_DATA_BASE), prefix_of(GPA_NODE_BASE));
        for mode in [WalkMode::Native, WalkMode::Virtualized] {
            let mut run = VirtTables::with_region(mode, 3);
            let mut model = VirtTables::with_region(mode, 3);
            // Leaf-node, PD and PDP boundaries crossed, by address bit.
            let mut crossed = [false; 3];
            let (mut pages_mapped, mut fresh_runs) = (0u64, 0u32);
            for step in 0..80u32 {
                let r = next();
                let size = PageSize::POM_SIZES[(r & 1) as usize];
                // 4 KB and 2 MB pages in disjoint regions, as in the layouts.
                let region = if size == PageSize::Small4K { 0x1000_0000_0000u64 } else { 0x2000_0000_0000 };
                // Approach a 2 MiB, 1 GiB or 512 GiB boundary from below, or
                // start anywhere in the first few leaf nodes.
                let bit = [21u32, 30, 39, 0][((r >> 1) % 4) as usize].max(size.shift() + 9);
                let boundary = region + ((1 + (r >> 3) % 6) << bit);
                // Up to ~2 PT nodes of 4 KB pages; 2 MB runs stay short
                // so the host frames of region 3 (4 GiB) last.
                let span = if size == PageSize::Small4K { 1200 } else { 16 };
                let back = ((r >> 6) % (span / 2 + 100)).min((boundary - region) >> size.shift());
                let first = if step == 0 { region } else { boundary - (back << size.shift()) };
                let count = 1 + (r >> 16) % span;
                if (r >> 27).is_multiple_of(3) {
                    // A few single pages first, some inside the coming run.
                    for _ in 0..1 + (r >> 29) % 4 {
                        let page = Gva::new(first + ((next() % (count + 64)) << size.shift()));
                        assert_eq!(run.ensure_mapped(page, size), map_page_by_page(&mut model, page, size));
                    }
                }
                let mut got = Vec::new();
                run.map_run(Gva::new(first), size, count, |page, hpa| got.push((page, hpa)));
                assert_eq!(got.len() as u64, count, "one call per page at step {step}");
                let mut fresh = true;
                for (k, &(page, hpa)) in got.iter().enumerate() {
                    assert_eq!(page.raw(), first + ((k as u64) << size.shift()), "page order at step {step}");
                    fresh &= model.lookup_page(page).is_none();
                    assert_eq!(hpa, map_page_by_page(&mut model, page, size), "frame of {page} at step {step}");
                }
                fresh_runs += u32::from(fresh);
                for &(page, _) in &got {
                    assert_eq!(run.guest_walk(page), model.guest_walk(page), "guest walk of {page} at step {step}");
                    let (gpa, _) = model.guest_translate_page(page).expect("mapped");
                    assert_eq!(run.host_walk(gpa), model.host_walk(gpa), "host walk of {page} at step {step}");
                }
                assert_same_state(&run, &model, fresh, step);
                if !fresh {
                    // Compare later fresh runs from equal caches.
                    run.host.paths = model.host.paths.clone();
                    if let (Some(g), Some(m)) = (run.guest.as_mut(), model.guest.as_ref()) {
                        g.paths = m.paths.clone();
                    }
                }
                let last = first + ((count - 1) << size.shift());
                for (crossed, bit) in crossed.iter_mut().zip([size.shift() + 9, 30, 39]) {
                    *crossed |= first >> bit != last >> bit;
                }
                pages_mapped += count;
            }
            assert_eq!(crossed, [true; 3], "{mode:?} runs crossed every node boundary");
            assert!(pages_mapped > 20_000, "{pages_mapped} pages");
            assert!((20..70).contains(&fresh_runs), "{fresh_runs} of 80 runs mapped only fresh pages");
        }
    }

    #[test]
    fn data_and_node_regions_disjoint() {
        let mut vt = VirtTables::new(WalkMode::Virtualized);
        let hpa = vt.ensure_mapped(Gva::new(0x1000_0000_0000), PageSize::Small4K);
        let gw = vt.guest_walk(Gva::new(0x1000_0000_0000)).unwrap();
        let hw = vt.host_walk(Gpa::new(gw.pte_addrs[0])).unwrap();
        // Host node addresses and host data frames must not overlap.
        for node in &hw.node_addrs {
            assert!(*node >= HPA_NODE_BASE);
        }
        assert!(hpa.raw() < HPA_NODE_BASE);
    }
}
