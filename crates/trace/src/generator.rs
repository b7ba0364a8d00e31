//! The trace generator: turns a [`WorkloadSpec`] into an infinite,
//! deterministic stream of [`MemoryRef`]s.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pomtlb_types::{AccessKind, AddressSpace, Gva, PageSize, CACHE_LINE_BYTES};

use crate::picker::PagePicker;
use crate::record::MemoryRef;
use crate::spec::WorkloadSpec;

/// Base guest-virtual address of the 4 KB-page region every workload's small
/// footprint is laid out at (a heap-like address, canonical under x86-64).
pub const SMALL_REGION_BASE: u64 = 0x0000_1000_0000_0000;

/// Base guest-virtual address of the 2 MB-page region (2 MB aligned).
pub const LARGE_REGION_BASE: u64 = 0x0000_2000_0000_0000;

/// Where a workload's footprint lives in its guest-virtual address space.
///
/// The generator places all 4 KB-backed memory in one contiguous region and
/// all 2 MB-backed memory in another, mirroring how Linux THP promotes whole
/// aligned extents. The page-table builder in the core crate consumes this
/// to install the matching guest mappings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressLayout {
    /// First address of the 4 KB region.
    pub small_base: Gva,
    /// Number of 4 KB pages.
    pub small_pages: u64,
    /// First address of the 2 MB region.
    pub large_base: Gva,
    /// Number of 2 MB pages (may be zero).
    pub large_pages: u64,
}

impl AddressLayout {
    /// Computes the layout for a spec.
    pub fn of_spec(spec: &WorkloadSpec) -> AddressLayout {
        AddressLayout {
            small_base: Gva::new(SMALL_REGION_BASE),
            small_pages: spec.small_region_bytes() >> PageSize::Small4K.shift(),
            large_base: Gva::new(LARGE_REGION_BASE),
            large_pages: spec.large_region_bytes() >> PageSize::Large2M.shift(),
        }
    }

    /// The page size backing `va`, or `None` if `va` is outside the layout.
    pub fn page_size_of(&self, va: Gva) -> Option<PageSize> {
        let raw = va.raw();
        let small_end = self.small_base.raw() + (self.small_pages << PageSize::Small4K.shift());
        let large_end = self.large_base.raw() + (self.large_pages << PageSize::Large2M.shift());
        if raw >= self.small_base.raw() && raw < small_end {
            Some(PageSize::Small4K)
        } else if raw >= self.large_base.raw() && raw < large_end {
            Some(PageSize::Large2M)
        } else {
            None
        }
    }

    /// Iterates over every page base in the layout with its size, small
    /// region first.
    pub fn pages(&self) -> impl Iterator<Item = (Gva, PageSize)> + '_ {
        self.runs().into_iter().flat_map(|(base, size, count)| {
            (0..count).map(move |i| (base.wrapping_add(i << size.shift()), size))
        })
    }

    /// Each region as one run of consecutive pages — its first page, page
    /// size and page count — small region first, so the runs list the
    /// pages [`Self::pages`] yields, in its order.
    pub fn runs(&self) -> [(Gva, PageSize, u64); 2] {
        [
            (self.small_base, PageSize::Small4K, self.small_pages),
            (self.large_base, PageSize::Large2M, self.large_pages),
        ]
    }

    /// Total number of pages across both regions.
    pub fn total_pages(&self) -> u64 {
        self.small_pages + self.large_pages
    }
}

/// Infinite, deterministic reference-stream generator for one workload on
/// one core.
///
/// Implements [`Iterator`] over [`MemoryRef`]; see the crate docs for an
/// example.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    layout: AddressLayout,
    small_picker: PagePicker,
    large_picker: Option<PagePicker>,
    rng: SmallRng,
    icount: u64,
    mean_gap: f64,
    write_frac: f64,
    large_access_frac: f64,
    same_page_burst: f64,
    line_repeat: f64,
    /// Last page touched, for intra-page bursts.
    last_page: Option<(Gva, PageSize)>,
    last_offset: u64,
    space: AddressSpace,
}

impl TraceGenerator {
    /// Creates a generator for `spec`, deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the spec does not validate.
    pub fn new(spec: &WorkloadSpec, seed: u64) -> TraceGenerator {
        Self::with_space(spec, seed, AddressSpace::default())
    }

    /// Like [`TraceGenerator::new`] but tags references with an explicit
    /// VM/process, for multi-VM experiments.
    ///
    /// # Panics
    ///
    /// Panics if the spec does not validate.
    pub fn with_space(spec: &WorkloadSpec, seed: u64, space: AddressSpace) -> TraceGenerator {
        if let Err(e) = spec.validate() {
            panic!("invalid workload spec `{}`: {e}", spec.name);
        }
        let layout = AddressLayout::of_spec(spec);
        let small_picker = PagePicker::new(&spec.locality, layout.small_pages.max(1), seed ^ 0x5157);
        let large_picker = (layout.large_pages > 0)
            .then(|| PagePicker::new(&spec.locality, layout.large_pages, seed ^ 0xab1e));
        TraceGenerator {
            layout,
            small_picker,
            large_picker,
            rng: SmallRng::seed_from_u64(seed),
            icount: 0,
            mean_gap: 1000.0 / spec.refs_per_kilo_instr,
            write_frac: spec.write_frac,
            large_access_frac: if layout.large_pages > 0 { spec.large_page_frac } else { 0.0 },
            same_page_burst: spec.same_page_burst,
            line_repeat: spec.line_repeat,
            last_page: None,
            last_offset: 0,
            space,
        }
    }

    /// The address layout this generator draws from.
    pub fn layout(&self) -> AddressLayout {
        self.layout
    }

    /// Generates the next reference (never exhausts).
    pub fn next_ref(&mut self) -> MemoryRef {
        // Instruction gap: geometric-ish with the spec's mean; at least one
        // instruction (the memory op itself).
        let u: f64 = self.rng.gen::<f64>().max(1e-12);
        let gap = (-self.mean_gap * u.ln()).round().max(1.0) as u64;
        self.icount += gap;

        // Temporal locality: often the very same line is touched again
        // (spills, fields, counters); the L1D absorbs these in hardware.
        if let Some((page_base, _)) = self.last_page {
            if self.rng.gen::<f64>() < self.line_repeat {
                let kind = if self.rng.gen::<f64>() < self.write_frac {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                return MemoryRef::new(
                    self.icount,
                    page_base.wrapping_add(self.last_offset),
                    kind,
                    self.space,
                );
            }
        }
        let (page_base, size) = match self.last_page {
            Some(last) if self.rng.gen::<f64>() < self.same_page_burst => last,
            _ => self.pick_new_page(),
        };
        // Sequential line-granularity walk within the page keeps intra-page
        // spatial locality realistic for the data caches.
        self.last_offset = if self.last_page == Some((page_base, size)) {
            (self.last_offset + CACHE_LINE_BYTES) & (size.bytes() - 1)
        } else {
            self.rng.gen_range(0..size.bytes()) & !(CACHE_LINE_BYTES - 1)
        };
        self.last_page = Some((page_base, size));

        let kind = if self.rng.gen::<f64>() < self.write_frac {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        MemoryRef::new(self.icount, page_base.wrapping_add(self.last_offset), kind, self.space)
    }

    fn pick_new_page(&mut self) -> (Gva, PageSize) {
        let go_large = match &mut self.large_picker {
            Some(_) => self.rng.gen::<f64>() < self.large_access_frac,
            None => false,
        };
        if go_large {
            let picker = self.large_picker.as_mut().expect("checked above");
            let idx = picker.next_page(&mut self.rng);
            (
                self.layout.large_base.wrapping_add(idx << PageSize::Large2M.shift()),
                PageSize::Large2M,
            )
        } else {
            let idx = self.small_picker.next_page(&mut self.rng);
            (
                self.layout.small_base.wrapping_add(idx << PageSize::Small4K.shift()),
                PageSize::Small4K,
            )
        }
    }
}

impl Iterator for TraceGenerator {
    type Item = MemoryRef;

    fn next(&mut self) -> Option<MemoryRef> {
        Some(self.next_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::LocalityModel;

    fn spec() -> WorkloadSpec {
        WorkloadSpec::builder("t")
            .footprint_bytes(32 << 20)
            .large_page_frac(0.5)
            .refs_per_kilo_instr(250.0)
            .locality(LocalityModel::UniformRandom)
            .build()
    }

    #[test]
    fn deterministic_given_seed() {
        let s = spec();
        let a: Vec<MemoryRef> = TraceGenerator::new(&s, 7).take(500).collect();
        let b: Vec<MemoryRef> = TraceGenerator::new(&s, 7).take(500).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_diverge() {
        let s = spec();
        let a: Vec<MemoryRef> = TraceGenerator::new(&s, 7).take(100).collect();
        let b: Vec<MemoryRef> = TraceGenerator::new(&s, 8).take(100).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn icount_strictly_increases() {
        let mut gen = TraceGenerator::new(&spec(), 1);
        let mut prev = 0;
        for _ in 0..1000 {
            let r = gen.next_ref();
            assert!(r.icount > prev);
            prev = r.icount;
        }
    }

    #[test]
    fn mean_gap_tracks_rpki() {
        // 250 refs per kilo-instruction => mean gap ~4 instructions.
        let mut gen = TraceGenerator::new(&spec(), 2);
        let n = 20_000;
        let last = (&mut gen).take(n).last().unwrap();
        let mean = last.icount as f64 / n as f64;
        assert!((3.0..6.0).contains(&mean), "mean gap {mean}");
    }

    #[test]
    fn addresses_stay_inside_layout() {
        let s = spec();
        let gen = TraceGenerator::new(&s, 3);
        let layout = gen.layout();
        for r in gen.take(5000) {
            assert!(
                layout.page_size_of(r.addr).is_some(),
                "address {} escaped the layout",
                r.addr
            );
        }
    }

    #[test]
    fn large_access_fraction_near_spec() {
        let s = spec();
        let gen = TraceGenerator::new(&s, 4);
        let layout = gen.layout();
        let n = 20_000;
        let large = gen
            .take(n)
            .filter(|r| layout.page_size_of(r.addr) == Some(PageSize::Large2M))
            .count();
        let frac = large as f64 / n as f64;
        assert!((0.40..0.60).contains(&frac), "large frac {frac}, want ~0.5");
    }

    #[test]
    fn write_fraction_near_spec() {
        let s = WorkloadSpec::builder("w").write_frac(0.25).build();
        let gen = TraceGenerator::new(&s, 5);
        let n = 20_000;
        let writes = gen.take(n).filter(|r| r.kind.is_write()).count();
        let frac = writes as f64 / n as f64;
        assert!((0.22..0.28).contains(&frac), "write frac {frac}");
    }

    #[test]
    fn zero_large_frac_never_goes_large() {
        let s = WorkloadSpec::builder("w").large_page_frac(0.0).build();
        let gen = TraceGenerator::new(&s, 6);
        let layout = gen.layout();
        assert_eq!(layout.large_pages, 0);
        for r in gen.take(2000) {
            assert_eq!(layout.page_size_of(r.addr), Some(PageSize::Small4K));
        }
    }

    #[test]
    fn addresses_are_line_aligned() {
        let gen = TraceGenerator::new(&spec(), 8);
        for r in gen.take(1000) {
            assert_eq!(r.addr.raw() % CACHE_LINE_BYTES, 0);
        }
    }

    #[test]
    fn burst_probability_keeps_page() {
        let s = WorkloadSpec::builder("w")
            .same_page_burst(0.95)
            .locality(LocalityModel::UniformRandom)
            .footprint_bytes(256 << 20)
            .build();
        let gen = TraceGenerator::new(&s, 9);
        let pages: Vec<u64> = gen.take(2000).map(|r| r.addr.raw() >> 12).collect();
        let stays = pages.windows(2).filter(|w| w[0] == w[1]).count();
        // With random in-page offsets a stay can also look like a page
        // change only via offset wrap; expect a high stay rate.
        assert!(stays > 1600, "same-page bursts too rare: {stays}");
    }

    #[test]
    fn layout_pages_iterator_counts_match() {
        let s = spec();
        let layout = AddressLayout::of_spec(&s);
        assert_eq!(layout.pages().count() as u64, layout.total_pages());
        let smalls = layout.pages().filter(|(_, sz)| *sz == PageSize::Small4K).count() as u64;
        assert_eq!(smalls, layout.small_pages);
    }

    #[test]
    fn layout_page_size_of_boundaries() {
        let s = spec();
        let layout = AddressLayout::of_spec(&s);
        assert_eq!(layout.page_size_of(layout.small_base), Some(PageSize::Small4K));
        assert_eq!(layout.page_size_of(layout.large_base), Some(PageSize::Large2M));
        assert_eq!(layout.page_size_of(Gva::new(0)), None);
        let small_end = layout.small_base.wrapping_add(layout.small_pages << 12);
        assert_eq!(layout.page_size_of(small_end), None);
    }
}
