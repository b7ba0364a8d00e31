//! One constructor per paper artifact. Each returns a [`Figure`] that can
//! be pretty-printed or serialized to JSON.

use pom_tlb::{PomTlbConfig, Scheme, SystemConfig};
use pom_tlb::perf_model::geomean_improvement_pct;
use pomtlb_sram_model::{SramModel, FIGURE4_CAPACITIES};
use pomtlb_tlb::{VirtTables, WalkMode};
use pomtlb_types::{Gpa, Gva, PageSize};
use pomtlb_workloads::{all, PaperWorkload};
use serde_json::json;

use crate::matrix::Matrix;

/// A rendered experiment artifact: a table of rows plus free-form notes.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Artifact id (`"fig8"`, `"table2"`, ...).
    pub id: String,
    /// Human title, matching the paper's caption.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Row cells (stringified).
    pub rows: Vec<Vec<String>>,
    /// Expected-shape notes and calibration remarks.
    pub notes: Vec<String>,
}

impl Figure {
    fn new(id: &str, title: &str, columns: &[&str]) -> Figure {
        Figure {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.columns.len());
        self.rows.push(cells);
    }

    fn note(&mut self, n: impl Into<String>) {
        self.notes.push(n.into());
    }

    /// Renders as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} — {}\n", self.id, self.title));
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(header.join("  ").len()));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        out
    }

    /// JSON form for machine consumption.
    pub fn to_json(&self) -> serde_json::Value {
        json!({
            "id": self.id,
            "title": self.title,
            "columns": self.columns,
            "rows": self.rows,
            "notes": self.notes,
        })
    }
}

/// The workload subset used by the parameter sweeps (keeps §4.6-style
/// sweeps affordable on one machine while covering every workload class).
pub fn sweep_subset() -> Vec<PaperWorkload> {
    all()
        .into_iter()
        .filter(|w| ["astar", "gups", "mcf", "streamcluster", "ccomponent"].contains(&w.name))
        .collect()
}

/// Table 1: the simulated system parameters.
pub fn table1() -> Figure {
    let c = SystemConfig::default();
    let mut f = Figure::new("table1", "Experimental parameters", &["Component", "Value"]);
    let rows: Vec<(&str, String)> = vec![
        ("Cores", format!("{}", c.n_cores)),
        ("Frequency", format!("{} GHz", c.cpu_ghz)),
        ("L1 D-Cache", "32KB, 8 way, 4 cycles".into()),
        ("L2 Unified Cache", "256KB, 4 way, 12 cycles".into()),
        ("L3 Unified Cache", "8MB, 16 way, 42 cycles".into()),
        ("L1 TLB (4KB)", "64 entries, 4 way, 9 cycle miss".into()),
        ("L1 TLB (2MB)", "32 entries, 4 way, 9 cycle miss".into()),
        ("L2 Unified TLB", "1536 entries, 12 way, 17 cycle miss".into()),
        ("PSC PML4/PDP/PDE", "2/4/32 entries, 2 cycles".into()),
        (
            "Die-stacked DRAM",
            format!(
                "{} GHz bus, {}-bit, 2KB rows, {}-{}-{}, {} banks",
                c.die_stacked.bus_ghz,
                c.die_stacked.bus_bits,
                c.die_stacked.t_cas,
                c.die_stacked.t_rcd,
                c.die_stacked.t_rp,
                c.die_stacked_banks
            ),
        ),
        (
            "DDR4-2133",
            format!(
                "{} GHz bus, {}-bit, 2KB rows, {}-{}-{}, {} banks",
                c.ddr.bus_ghz, c.ddr.bus_bits, c.ddr.t_cas, c.ddr.t_rcd, c.ddr.t_rp, c.dram_banks
            ),
        ),
        (
            "POM-TLB",
            format!(
                "{} MB ({} MB 4KB + {} MB 2MB), {}-way",
                c.pom.capacity_bytes >> 20,
                c.pom.small_bytes() >> 20,
                c.pom.large_bytes() >> 20,
                c.pom.ways
            ),
        ),
        ("TSB baseline", format!("{} MB, direct-mapped, {} trap", c.tsb.capacity_bytes >> 20, c.tsb.trap_cycles)),
    ];
    for (k, v) in rows {
        f.row(vec![k.to_string(), v]);
    }
    f
}

/// Table 2: the embedded per-workload characteristics.
pub fn table2() -> Figure {
    let mut f = Figure::new(
        "table2",
        "Benchmark characteristics related to TLB misses (paper-measured)",
        &[
            "Workload", "Suite", "Ovh nat %", "Ovh virt %", "Cyc/miss nat", "Cyc/miss virt",
            "Large pages %", "Implied MPKI",
        ],
    );
    for w in all() {
        let t = &w.table2;
        f.row(vec![
            w.name.to_string(),
            format!("{:?}", w.suite),
            format!("{:.2}", t.overhead_native_pct),
            format!("{:.2}", t.overhead_virtual_pct),
            format!("{:.0}", t.cycles_per_miss_native),
            format!("{:.0}", t.cycles_per_miss_virtual),
            format!("{:.1}", t.frac_large_pages_pct),
            format!("{:.2}", t.implied_mpki_virtual(1.0)),
        ]);
    }
    f
}

/// Figure 1: the 24-reference 2-D page walk, step by step, on real
/// simulated page tables.
pub fn fig1() -> Figure {
    let mut f = Figure::new(
        "fig1",
        "x86 2-D page walk in a virtualized environment (one 4KB translation)",
        &["Step", "Access", "Space", "Physical address"],
    );
    let mut vt = VirtTables::new(WalkMode::Virtualized);
    let gva = Gva::new(0x1000_2345_6000);
    vt.ensure_mapped(gva, PageSize::Small4K);
    let guest = vt.guest_walk(gva).expect("mapped");
    let gl = ["gL4", "gL3", "gL2", "gL1"];
    let hl = ["hL4", "hL3", "hL2", "hL1"];
    let mut step = 0;
    for (i, pte_gpa) in guest.pte_addrs.iter().enumerate() {
        let host = vt.host_walk(Gpa::new(*pte_gpa)).expect("host-backed");
        for (j, pte_hpa) in host.pte_addrs.iter().enumerate() {
            step += 1;
            f.row(vec![
                step.to_string(),
                hl[j].to_string(),
                "host".into(),
                format!("{:#x}", pte_hpa),
            ]);
        }
        step += 1;
        let hpa = vt.host_translate(Gpa::new(*pte_gpa)).expect("backed");
        f.row(vec![step.to_string(), gl[i].to_string(), "guest".into(), format!("{hpa}")]);
    }
    let final_gpa = guest.target_base + gva.page_offset(guest.size);
    let host = vt.host_walk(Gpa::new(final_gpa)).expect("mapped");
    for (j, pte_hpa) in host.pte_addrs.iter().enumerate() {
        step += 1;
        f.row(vec![step.to_string(), hl[j].to_string(), "host".into(), format!("{:#x}", pte_hpa)]);
    }
    f.note(format!("{step} memory references for one guest-virtual translation (paper: up to 24)"));
    f
}

/// Figure 2: average translation cycles per L2 TLB miss (virtualized) —
/// simulated walker vs the paper's measurement.
pub fn fig2(m: &mut Matrix) -> Figure {
    let mut f = Figure::new(
        "fig2",
        "Average translation cycles per L2 TLB miss, virtualized",
        &["Workload", "Simulated", "Paper (measured)", "Anchor used"],
    );
    for w in all() {
        let sim = m.baseline(&w).p_avg();
        f.row(vec![
            w.name.to_string(),
            format!("{:.0}", sim),
            format!("{:.0}", w.table2.cycles_per_miss_virtual),
            format!("{:.0}", m.p_anchor(&w)),
        ]);
    }
    f.note("expected shape: tens to hundreds of cycles; ccomponent the outlier (paper: 61–1158)");
    f
}

/// Figure 3: virtualized-to-native translation cost ratio.
pub fn fig3(m: &mut Matrix) -> Figure {
    let mut f = Figure::new(
        "fig3",
        "Ratio of virtualized to native translation costs",
        &["Workload", "Simulated ratio", "Paper ratio"],
    );
    for w in all() {
        let virt = m.baseline(&w).p_avg();
        let native = m.native_baseline(&w).p_avg();
        let ratio = if native > 0.0 { virt / native } else { 0.0 };
        f.row(vec![
            w.name.to_string(),
            format!("{:.2}", ratio),
            format!("{:.2}", w.table2.virt_native_ratio()),
        ]);
    }
    f.note("expected shape: every ratio >= 1; gups/gcc/lbm/mcf elevated, ccomponent extreme in the paper");
    f
}

/// Figure 4: SRAM access latency vs capacity (CACTI-style), normalized to
/// 16 KB.
pub fn fig4() -> Figure {
    let mut f = Figure::new(
        "fig4",
        "SRAM access latency vs capacity (normalized to 16KB)",
        &["Capacity", "Latency (ns)", "Normalized"],
    );
    let model = SramModel::default();
    for cap in FIGURE4_CAPACITIES {
        f.row(vec![
            if cap >= 1 << 20 { format!("{}MB", cap >> 20) } else { format!("{}KB", cap >> 10) },
            format!("{:.3}", model.access_time_ns(cap)),
            format!("{:.2}", model.normalized_latency(cap)),
        ]);
    }
    f.note("expected shape: superlinear growth — naively scaling SRAM TLBs does not work");
    f
}

/// Figure 8: performance improvement of POM-TLB, Shared_L2 and TSB over
/// the anchored baseline (8 cores).
pub fn fig8(m: &mut Matrix) -> Figure {
    let mut f = Figure::new(
        "fig8",
        "Performance improvement over baseline, 8 cores (%)",
        &["Workload", "POM-TLB", "Shared_L2", "TSB"],
    );
    let mut pom = Vec::new();
    let mut shared = Vec::new();
    let mut tsb = Vec::new();
    for w in all() {
        let p = m.improvement(&w, Scheme::pom_tlb());
        let s = m.improvement(&w, Scheme::SharedL2);
        let t = m.improvement(&w, Scheme::Tsb);
        pom.push(p);
        shared.push(s);
        tsb.push(t);
        f.row(vec![
            w.name.to_string(),
            format!("{:+.1}", p),
            format!("{:+.1}", s),
            format!("{:+.1}", t),
        ]);
    }
    f.row(vec![
        "geomean".into(),
        format!("{:+.1}", geomean_improvement_pct(&pom)),
        format!("{:+.1}", geomean_improvement_pct(&shared)),
        format!("{:+.1}", geomean_improvement_pct(&tsb)),
    ]);
    f.note("expected shape: POM-TLB > Shared_L2 > TSB on average (paper: 9.57 / 6.10 / 4.27%)");
    f.note("streamcluster near zero (little headroom); gups POM >> TSB");
    f
}

/// Figure 9: where POM-TLB translations are found.
pub fn fig9(m: &mut Matrix) -> Figure {
    let mut f = Figure::new(
        "fig9",
        "Hit ratio at each level holding POM-TLB entries",
        &["Workload", "L2D$ %", "L3D$ %", "POM-TLB %", "walks elim %"],
    );
    for w in all() {
        let r = m.report(&w, Scheme::pom_tlb());
        f.row(vec![
            w.name.to_string(),
            format!("{:.1}", r.fig9_l2d_hit_rate() * 100.0),
            format!("{:.1}", r.fig9_l3d_hit_rate() * 100.0),
            format!("{:.1}", r.fig9_pom_hit_rate() * 100.0),
            format!("{:.1}", r.walks_eliminated() * 100.0),
        ]);
    }
    f.note("paper averages: L2D$ 89.7%, POM-TLB 88% of the remainder; nearly all walks eliminated");
    f
}

/// Figure 10: size and bypass predictor accuracy.
pub fn fig10(m: &mut Matrix) -> Figure {
    let mut f = Figure::new(
        "fig10",
        "Predictor accuracy (8 cores)",
        &["Workload", "Size %", "Bypass %"],
    );
    let mut size_acc = Vec::new();
    let mut byp_acc = Vec::new();
    for w in all() {
        let r = m.report(&w, Scheme::pom_tlb());
        size_acc.push(r.size_pred.accuracy());
        byp_acc.push(r.bypass_pred.accuracy());
        f.row(vec![
            w.name.to_string(),
            format!("{:.1}", r.size_pred.accuracy() * 100.0),
            format!("{:.1}", r.bypass_pred.accuracy() * 100.0),
        ]);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64 * 100.0;
    f.row(vec!["mean".into(), format!("{:.1}", mean(&size_acc)), format!("{:.1}", mean(&byp_acc))]);
    f.note("paper: size ~95% accurate; bypass only ~45.8% (noisy, as discussed in §4.3)");
    f
}

/// Figure 11: row-buffer hit rate in the POM-TLB's die-stacked channel.
pub fn fig11(m: &mut Matrix) -> Figure {
    let mut f = Figure::new(
        "fig11",
        "Row buffer hits in the L3 TLB (8 cores)",
        &["Workload", "RBH %", "POM DRAM accesses"],
    );
    for w in all() {
        let r = m.report(&w, Scheme::pom_tlb());
        f.row(vec![
            w.name.to_string(),
            format!("{:.1}", r.fig11_rbh() * 100.0),
            r.pom_dram.accesses.to_string(),
        ]);
    }
    f.note("paper mean 71%; streaming workloads (streamcluster) highest");
    f
}

/// Figure 12: POM-TLB with and without data-cache caching of entries.
pub fn fig12(m: &mut Matrix) -> Figure {
    let mut f = Figure::new(
        "fig12",
        "POM-TLB improvement with and without data caching (%)",
        &["Workload", "With caching", "Without caching", "Delta"],
    );
    let mut with = Vec::new();
    let mut without = Vec::new();
    for w in all() {
        let a = m.improvement(&w, Scheme::pom_tlb());
        let b = m.improvement(&w, Scheme::pom_tlb_uncached());
        with.push(a);
        without.push(b);
        f.row(vec![
            w.name.to_string(),
            format!("{:+.1}", a),
            format!("{:+.1}", b),
            format!("{:+.1}", a - b),
        ]);
    }
    f.row(vec![
        "geomean".into(),
        format!("{:+.1}", geomean_improvement_pct(&with)),
        format!("{:+.1}", geomean_improvement_pct(&without)),
        String::new(),
    ]);
    f.note("paper: caching adds ~5 points on average; walk elimination is identical either way");
    f
}

/// §4.6 capacity sweep: 8, 16, 32 MB POM-TLB.
pub fn capacity(m: &mut Matrix) -> Figure {
    let mut f = Figure::new(
        "sec46a",
        "POM-TLB capacity sweep: improvement (%)",
        &["Workload", "8MB", "16MB", "32MB"],
    );
    for w in sweep_subset() {
        let mut cells = vec![w.name.to_string()];
        for cap in [8u64 << 20, 16 << 20, 32 << 20] {
            let sys = SystemConfig {
                pom: PomTlbConfig { capacity_bytes: cap, ..Default::default() },
                ..Default::default()
            };
            let imp =
                m.improvement_with(&w, Scheme::pom_tlb(), &format!("cap{}", cap >> 20), sys);
            cells.push(format!("{:+.1}", imp));
        }
        f.row(cells);
    }
    f.note("paper: <1% difference across 8–32MB — capacity is not the binding constraint");
    f
}

/// §4.6 core-count sweep: 4, 8, 32 cores.
///
/// SPECrate copies multiply the aggregate footprint with the core count;
/// the paper's working sets stayed within the POM-TLB's reach at every
/// count ("POM-TLB is so large that most of the page walks are
/// eliminated"), so per-copy footprints are scaled to hold the aggregate
/// constant, keeping the comparison about *contention*, not capacity.
pub fn cores(m: &mut Matrix) -> Figure {
    let mut f = Figure::new(
        "sec46b",
        "Core-count sweep: improvement (%)",
        &["Workload", "4 cores", "8 cores", "32 cores"],
    );
    for w in sweep_subset() {
        let mut cells = vec![w.name.to_string()];
        for n in [4usize, 8, 32] {
            let sys = SystemConfig { n_cores: n, ..Default::default() };
            let mut scaled = w.clone();
            if !w.suite.shares_memory() {
                scaled.spec.footprint_bytes = w.spec.footprint_bytes * 8 / n as u64;
            }
            let imp = m.improvement_with(&scaled, Scheme::pom_tlb(), &format!("cores{n}"), sys);
            cells.push(format!("{:+.1}", imp));
        }
        f.row(cells);
    }
    f.note("paper: approximately stable across core counts");
    f.note("SPECrate per-copy footprints scaled to hold the aggregate working set constant");
    f
}

/// Ablation: POM-TLB associativity (§2.1.1 chose 4 ways = one burst).
pub fn assoc(m: &mut Matrix) -> Figure {
    let mut f = Figure::new(
        "abl1",
        "POM-TLB associativity ablation: improvement (%)",
        &["Workload", "1-way", "2-way", "4-way", "8-way"],
    );
    for w in sweep_subset() {
        let mut cells = vec![w.name.to_string()];
        for ways in [1u32, 2, 4, 8] {
            let sys = SystemConfig {
                pom: PomTlbConfig { ways, ..Default::default() },
                ..Default::default()
            };
            let imp = m.improvement_with(&w, Scheme::pom_tlb(), &format!("ways{ways}"), sys);
            cells.push(format!("{:+.1}", imp));
        }
        f.row(cells);
    }
    f.note("paper: below 4 ways, conflict misses rise significantly; 4 ways fits one 64B burst");
    f
}

/// Extension (§5.2): efficient virtual machine switching. K VMs run the
/// same workload round-robin on the cores; the POM-TLB retains every VM's
/// translations simultaneously (VM-ID-tagged entries), so switching VMs
/// costs almost nothing, while the SRAM-only baseline re-walks each VM's
/// working set after every switch.
pub fn vm_switching() -> Figure {
    use pom_tlb::{Scheme, System, SystemConfig};
    use pomtlb_tlb::{VirtTables, WalkMode};
    use pomtlb_types::{AccessKind, AddressSpace, CoreId, Cycles, ProcessId, VmId};
    use pomtlb_trace::TraceGenerator;
    use pomtlb_workloads::by_name;

    let mut f = Figure::new(
        "ext3",
        "§5.2 VM switching: penalty per L2 TLB miss after each switch",
        &["VMs", "Baseline p_avg", "POM-TLB p_avg", "POM walks/miss %"],
    );
    let w = by_name("canneal").expect("paper workload");
    for n_vms in [1u16, 2, 4] {
        let mut rows = Vec::new();
        for scheme in [Scheme::Baseline, Scheme::pom_tlb()] {
            let mut system =
                System::new(SystemConfig { n_cores: 2, ..Default::default() }, scheme);
            // Per-VM tables, generators and spaces.
            let mut vms: Vec<(AddressSpace, VirtTables, TraceGenerator)> = (0..n_vms)
                .map(|vm| {
                    let space = AddressSpace::new(VmId(vm), ProcessId(0));
                    (
                        space,
                        VirtTables::with_region(WalkMode::Virtualized, vm as u32),
                        TraceGenerator::with_space(&w.spec, 11 + vm as u64, space),
                    )
                })
                .collect();
            let layout = pomtlb_trace::AddressLayout::of_spec(&w.spec);
            // Steady state: every VM's translations already live in the
            // in-DRAM structures (as after long execution); what is being
            // measured is what *switching* does to the SRAM levels.
            for (space, tables, _) in vms.iter_mut() {
                system.prepopulate(*space, tables, &layout);
            }
            // Round-robin quantum of 4000 references per VM, 6 quanta per VM.
            let mut penalty_total = 0u64;
            let mut misses = 0u64;
            let mut walks = 0u64;
            let mut clock = 0u64;
            for quantum in 0..(6 * n_vms as usize) {
                let (space, tables, generator) = &mut vms[quantum % n_vms as usize];
                for _ in 0..4000 {
                    let r = generator.next_ref();
                    let size = layout.page_size_of(r.addr).expect("in layout");
                    tables.ensure_mapped(r.addr, size);
                    clock += 40;
                    let pre_walks = system.page_walks();
                    let (penalty, _) = system.access(
                        CoreId((quantum % 2) as u16),
                        *space,
                        r.addr,
                        AccessKind::Read,
                        tables,
                        Cycles::new(clock),
                    );
                    if penalty.raw() > 0 {
                        misses += 1;
                        penalty_total += penalty.raw();
                    }
                    walks += system.page_walks() - pre_walks;
                }
            }
            let p_avg = if misses == 0 { 0.0 } else { penalty_total as f64 / misses as f64 };
            rows.push((p_avg, if misses == 0 { 0.0 } else { walks as f64 / misses as f64 }));
        }
        f.row(vec![
            n_vms.to_string(),
            format!("{:.1}", rows[0].0),
            format!("{:.1}", rows[1].0),
            format!("{:.1}", rows[1].1 * 100.0),
        ]);
    }
    f.note("POM-TLB penalty stays flat as VM count grows: all VMs' translations coexist (VM-ID tags)");
    f
}

/// Extension (footnote 1): skew-associative unified POM-TLB vs the
/// shipped partitioned design, at equal capacity, as the size mix shifts.
/// A structure-level comparison (no full-system run needed): each design
/// services the same translation stream and reports its miss rate and the
/// DRAM lines probed per lookup.
pub fn skew() -> Figure {
    use pom_tlb::{PomTlb, PomTlbConfig, SkewPomTlb};
    use pomtlb_types::{AddressSpace, Hpa};
    use rand_free_stream::Stream;

    /// A tiny deterministic xorshift stream so this artifact needs no RNG
    /// dependency wiring.
    mod rand_free_stream {
        pub struct Stream(pub u64);
        impl Stream {
            pub fn next(&mut self) -> u64 {
                let mut x = self.0;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                self.0 = x;
                x
            }
        }
    }

    let mut f = Figure::new(
        "ext2",
        "Footnote 1: partitioned vs skew-associative unified POM-TLB (1 MB scale model)",
        &[
            "Small-page access %", "Partitioned miss %", "Unified (skew) miss %",
            "Partitioned lines/lookup", "Skew lines/lookup",
        ],
    );
    let capacity = 1u64 << 20; // scale model: 64 Ki entries
    let space = AddressSpace::default();
    // Working set sized to ~80% of TOTAL capacity: a partitioned design
    // overflows whichever half the mix leans on; unified never does.
    let working_pages = (capacity / 16) * 8 / 10;
    for small_pct in [50u64, 70, 90, 97] {
        let mut part = PomTlb::new(PomTlbConfig {
            capacity_bytes: capacity,
            base_small: Hpa::new(0x60_0000_0000),
            ..Default::default()
        });
        let mut skewed = SkewPomTlb::new(capacity, 4, Hpa::new(0x62_0000_0000));
        let mut rng = Stream(0x2545_f491 + small_pct);
        let mut part_miss = 0u64;
        let mut skew_miss = 0u64;
        let n = 400_000u64;
        for _ in 0..n {
            let r = rng.next();
            let size = if r % 100 < small_pct { PageSize::Small4K } else { PageSize::Large2M };
            let page = (r >> 8) % working_pages;
            let va = match size {
                PageSize::Small4K => Gva::new(0x1000_0000_0000 + (page << 12)),
                _ => Gva::new(0x2000_0000_0000 + (page << 21)),
            };
            let frame = Hpa::new(0x1_0000_0000 + (page << size.shift()));
            if part.lookup(space, va, size).is_none() {
                part_miss += 1;
                part.insert(space, va, size, frame);
            }
            if skewed.lookup(space, va, size).is_none() {
                skew_miss += 1;
                skewed.insert(space, va, size, frame);
            }
        }
        f.row(vec![
            format!("{small_pct}"),
            format!("{:.2}", part_miss as f64 / n as f64 * 100.0),
            format!("{:.2}", skew_miss as f64 / n as f64 * 100.0),
            "1.0".into(),
            format!("{:.1}", skewed.mean_lines_probed()),
        ]);
    }
    f.note("unified skewing reclaims the idle partition as the mix skews, at 4x the DRAM lines per lookup");
    f.note("the paper ships the partitioned design because one 64B burst carries a whole set (§2.1.1)");
    f
}

/// Extension (§5.1): TLB-aware cache replacement — protect cached POM-TLB
/// entry lines from eviction by data fills in the L2/L3 data caches.
pub fn ext_tlb_aware(m: &mut Matrix) -> Figure {
    let mut f = Figure::new(
        "ext1",
        "§5.1 TLB-aware caching: POM-TLB improvement (%) and cache residency",
        &["Workload", "LRU imp", "TLB-aware imp", "LRU L2D$ %", "TLB-aware L2D$ %"],
    );
    for w in sweep_subset() {
        let base_imp = m.improvement(&w, Scheme::pom_tlb());
        let base_rep = m.report(&w, Scheme::pom_tlb());
        let mut sys = SystemConfig::default();
        sys.caches.l2 = sys.caches.l2.with_tlb_protection();
        sys.caches.l3 = sys.caches.l3.with_tlb_protection();
        let aware_imp = m.improvement_with(&w, Scheme::pom_tlb(), "tlbaware", sys.clone());
        let kappa = m.kappa(&w);
        let _ = kappa;
        let aware_rep = m.report_with(&w, Scheme::pom_tlb(), "tlbaware", sys);
        f.row(vec![
            w.name.to_string(),
            format!("{:+.1}", base_imp),
            format!("{:+.1}", aware_imp),
            format!("{:.1}", base_rep.fig9_l2d_hit_rate() * 100.0),
            format!("{:.1}", aware_rep.fig9_l2d_hit_rate() * 100.0),
        ]);
    }
    f.note("§5.1: prioritizing translation lines should raise cache residency for TLB-miss-heavy workloads");
    f
}

/// Ablation: predictor hysteresis (footnote 2).
pub fn predictor_sweep(m: &mut Matrix) -> Figure {
    let mut f = Figure::new(
        "abl2",
        "Predictor hysteresis ablation: size / bypass accuracy (%)",
        &["Workload", "1-bit size", "1-bit bypass", "2-bit size", "2-bit bypass", "3-bit size", "3-bit bypass"],
    );
    for w in sweep_subset() {
        let mut cells = vec![w.name.to_string()];
        for h in [1u8, 2, 3] {
            let sys = SystemConfig { predictor_hysteresis: h, ..Default::default() };
            let r = m.report_with(&w, Scheme::pom_tlb(), &format!("hyst{h}"), sys);
            cells.push(format!("{:.1}", r.size_pred.accuracy() * 100.0));
            cells.push(format!("{:.1}", r.bypass_pred.accuracy() * 100.0));
        }
        f.row(cells);
    }
    f.note("footnote 2: hysteresis should help the noisy bypass bit more than the stable size bit");
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::ExpConfig;

    #[test]
    fn static_figures_render() {
        for f in [table1(), table2(), fig1(), fig4()] {
            let text = f.render();
            assert!(text.contains(&f.id));
            assert!(!f.rows.is_empty());
            let j = f.to_json();
            assert_eq!(j["id"], f.id);
        }
    }

    #[test]
    fn fig1_has_24_steps() {
        let f = fig1();
        assert_eq!(f.rows.len(), 24, "Figure 1 is the 24-reference walk");
    }

    #[test]
    fn table2_has_all_workloads_plus_header() {
        assert_eq!(table2().rows.len(), 15);
    }

    #[test]
    fn fig4_is_monotone() {
        let f = fig4();
        let norm: Vec<f64> = f.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        assert!(norm.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn sweep_subset_is_five() {
        assert_eq!(sweep_subset().len(), 5);
    }

    #[test]
    fn dynamic_figure_smoke() {
        // One tiny dynamic figure end to end (others share the same path).
        let mut m = Matrix::new(ExpConfig { refs_per_core: 1_500, warmup_per_core: 500, seed: 1 });
        m.verbose = false;
        let one: Vec<_> = all().into_iter().filter(|w| w.name == "streamcluster").collect();
        let w = &one[0];
        let imp = m.improvement(w, pom_tlb::Scheme::pom_tlb());
        assert!(imp.is_finite());
    }
}
