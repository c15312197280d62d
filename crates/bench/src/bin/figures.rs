//! Regenerate every figure and table of the paper's evaluation.
//!
//! ```text
//! cargo run -p gdmp-bench --release --bin figures -- all
//! cargo run -p gdmp-bench --release --bin figures -- fig5
//! cargo run -p gdmp-bench --release --bin figures -- fig2 --trace
//! cargo run -p gdmp-bench --release --bin figures -- all --json > figures.jsonl
//! ```
//!
//! Subcommands: `fig1 fig2 fig5 fig6 tuning buffer objrep objcost staging stripe placement motivation all`,
//! plus `chaos` (failure-path cost report), `fetch` (multi-source
//! striped-fetch comparison), `catalog` (central vs federated lookup
//! scaling), `grid` (interned-id control-plane probes + the Tier-0/1/2
//! grid-scale soak), and `timeline` (sim-time time-series of
//! the striped fetch as sparklines + deterministic TSV); these are
//! deliberately not part of `all` so the canonical figure set stays
//! byte-identical.
//! Flags (parsed once by [`gdmp_bench::cli::ScenarioArgs`]): `--json`
//! emits machine-readable JSON lines instead of tables; `--trace` appends
//! the telemetry dump (spans, metrics, flight recorder) of the
//! grid-driven experiments (`fig1`, `fig2`); `--scenario <file>` points
//! the scenario-driven subcommands (`fetch`, `catalog`, `grid`,
//! `timeline`, `chaos`) at a scenario file instead of their preset;
//! `--seed <n>` overrides the scenario's seed.

use gdmp::{Grid, ObjectReplicationConfig, SiteConfig};
use gdmp_bench::cli::ScenarioArgs;
use gdmp_bench::figures::{fig_sweep, render, shape};
use gdmp_bench::{tables, Cell, Report};
use gdmp_objectstore::{LogicalOid, ObjectKind};
use gdmp_workloads::{FigureSweep, Placement, Population, Scenario, MB};

struct Opts {
    report: Report,
    trace: bool,
    args: ScenarioArgs,
}

fn or_die<T, E: std::fmt::Display>(r: Result<T, E>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (args, positional) = or_die(ScenarioArgs::parse(&raw));
    let which = positional.first().map(String::as_str).unwrap_or("all");
    let mut o = Opts { report: Report::new(args.json), trace: args.trace, args };
    match which {
        "fig1" => fig1(&mut o),
        "fig2" => fig2(&mut o),
        "fig5" => figure(&mut o, FigureSweep::figure5(), 23.0, 9),
        "fig6" => figure(&mut o, FigureSweep::figure6(), 23.0, 3),
        "tuning" => tuning(&mut o),
        "buffer" => buffer(&mut o),
        "objrep" => objrep(&mut o),
        "objcost" => objcost(&mut o),
        "staging" => staging(&mut o),
        "stripe" => stripe(&mut o),
        "placement" => placement(&mut o),
        "motivation" => motivation(&mut o),
        "chaos" => chaos(&mut o),
        "fetch" => fetch(&mut o),
        "catalog" => catalog(&mut o),
        "grid" => grid(&mut o),
        "timeline" => timeline(&mut o),
        "all" => {
            fig1(&mut o);
            fig2(&mut o);
            figure(&mut o, FigureSweep::figure5(), 23.0, 9);
            figure(&mut o, FigureSweep::figure6(), 23.0, 3);
            tuning(&mut o);
            buffer(&mut o);
            objrep(&mut o);
            objcost(&mut o);
            staging(&mut o);
            stripe(&mut o);
            placement(&mut o);
            motivation(&mut o);
        }
        other => {
            eprintln!("unknown experiment {other:?}; see module docs");
            std::process::exit(2);
        }
    }
}

fn figure(o: &mut Opts, sweep: FigureSweep, paper_peak: f64, paper_peak_streams: u32) {
    let r = &mut o.report;
    r.section(sweep.label);
    let rows = fig_sweep(&sweep);
    if r.is_json() {
        r.table(
            &["file_bytes", "streams", "buffer", "mbps", "retransmitted_segments", "timeouts"],
            &rows
                .iter()
                .map(|x| {
                    vec![
                        Cell::from(x.file_bytes),
                        Cell::from(x.streams),
                        Cell::from(x.buffer),
                        Cell::f(x.mbps, 1),
                        Cell::from(x.retransmitted_segments),
                        Cell::from(x.timeouts),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    } else {
        r.block(&render(&sweep, &rows));
    }
    let s = shape(&sweep, &rows);
    r.note(&format!(
        "shape: peak {:.1} Mb/s at {} streams (paper: ~{:.0} Mb/s at ~{} streams); \
         1 stream {:.1} Mb/s; 1 MB file mean {:.1} Mb/s",
        s.peak_mbps,
        s.peak_streams,
        paper_peak,
        paper_peak_streams,
        s.single_mbps,
        s.small_file_mean
    ));
    r.end_section();
}

fn tuning(o: &mut Opts) {
    let r = &mut o.report;
    r.section("Section 6 tuning conclusions (25 MB file, CERN↔ANL profile)");
    let t = tables::tuning_table(25 * MB, 10);
    r.note(&format!(
        "  optimal buffer (RTT × bottleneck): {} bytes (paper: ~703 KB)",
        t.optimal_buffer_bytes
    ));
    r.note(&format!(
        "  tuned 2-3 streams vs 1 tuned: +{:.0}% (paper: ~+25%)",
        t.tuned_2_3_gain_over_1 * 100.0
    ));
    match t.untuned_streams_matching_two_tuned {
        Some(n) => r.note(&format!(
            "  untuned streams matching 2 tuned: {n} (paper: ~10 untuned ≈ 2-3 tuned)"
        )),
        None => r.note("  untuned streams never matched 2 tuned within the sweep"),
    }
    let rows: Vec<Vec<Cell>> = t
        .untuned_by_streams
        .iter()
        .zip(&t.tuned_by_streams)
        .map(|((n, u), (_, tu))| vec![Cell::from(*n), Cell::f(*u, 1), Cell::f(*tu, 1)])
        .collect();
    r.table(&["streams", "untuned Mb/s", "tuned Mb/s"], &rows);
    r.end_section();
}

fn buffer(o: &mut Opts) {
    let r = &mut o.report;
    r.section("Buffer-size sweep, 1 stream, 25 MB file (knee ≈ RTT × bottleneck)");
    let rows: Vec<Vec<Cell>> = tables::buffer_sweep(25 * MB)
        .iter()
        .map(|x| vec![Cell::from(x.buffer / 1024), Cell::f(x.mbps, 1)])
        .collect();
    r.table(&["buffer KB", "Mb/s"], &rows);
    r.end_section();
}

fn objrep(o: &mut Opts) {
    let r = &mut o.report;
    r.section(
        "Section 5.1: file-level vs object-level replication (1 KB AODs,\n\
         10 000 events in 100-event files, clustered placement)",
    );
    let rows = tables::objrep_table(
        10_000,
        &[1.0, 0.3, 0.1, 0.03, 0.01, 0.003],
        Placement::ByKindChunks { events_per_file: 100 },
    );
    let cells: Vec<Vec<Cell>> = rows
        .iter()
        .map(|x| {
            vec![
                Cell::f(x.selectivity, 3),
                Cell::from(x.objects),
                Cell::from(x.file_level_bytes),
                Cell::from(x.object_level_bytes),
                Cell::f(x.ratio, 1),
                Cell::f(x.objrep_makespan_s, 1),
            ]
        })
        .collect();
    r.table(
        &["selectivity", "objects", "file-level B", "object-lvl B", "ratio", "objrep s"],
        &cells,
    );
    r.note("(paper: at sparse selections no usable file set exists; object");
    r.note(" replication ships only the selected ~bytes)");
    r.end_section();
}

fn objcost(o: &mut Opts) {
    let r = &mut o.report;
    r.section("Section 5.3: object replication server cost (1 000 of 2 000 AODs)");
    let cells: Vec<Vec<Cell>> =
        tables::objcost_table(&[500_000, 2_000_000, 10_000_000, 30_000_000, 100_000_000])
            .iter()
            .map(|x| {
                vec![
                    Cell::f(x.copier_bytes_per_sec as f64 / 1e6, 1),
                    Cell::f(x.cpu_s_per_net_mb, 3),
                    Cell::f(x.pipelined_s, 1),
                    Cell::f(x.sequential_s, 1),
                    Cell::from(x.copier_bound),
                ]
            })
            .collect();
    r.table(
        &["copier MB/s", "cpu s / net MB", "pipelined s", "sequential s", "copier-bound"],
        &cells,
    );
    r.note("(paper: a powerful-enough copier host is not a bottleneck; it");
    r.note(" costs extra CPU/disk I/O per network byte vs file replication)");
    r.end_section();
}

fn staging(o: &mut Opts) {
    let r = &mut o.report;
    r.section("Section 4.4: staging behaviour (4 MB file)");
    let cells: Vec<Vec<Cell>> = tables::staging_table(4)
        .iter()
        .map(|x| {
            vec![Cell::from(x.residence), Cell::f(x.stage_latency_s, 1), Cell::f(x.total_time_s, 1)]
        })
        .collect();
    r.table(&["residence", "stage s", "total s"], &cells);
    r.end_section();
}

fn motivation(o: &mut Opts) {
    let r = &mut o.report;
    r.section(
        "§2.1 motivation: per-object remote access (AMS over WAN) vs\n\
         object replication + local access",
    );
    let cells: Vec<Vec<Cell>> = tables::motivation_table(&[10, 100, 1_000, 10_000])
        .iter()
        .map(|x| {
            vec![
                Cell::from(x.objects),
                Cell::f(x.remote_access_s, 1),
                Cell::f(x.replicate_then_local_s, 1),
                Cell::f(x.speedup, 1),
            ]
        })
        .collect();
    r.table(&["objects", "remote s", "replicate+local s", "speedup x"], &cells);
    r.note("(replication pays once; navigational remote access pays one WAN");
    r.note(" round trip per object — [SaMo00], [YoMo00])");
    r.end_section();
}

fn placement(o: &mut Opts) {
    let r = &mut o.report;
    r.section(
        "Placement ablation (§5.1: 'smart initial placement ... can raise\n\
         the probability, but not by very much'): file/object byte ratio\n\
         at 1% selectivity under three placement policies",
    );
    let mut cells = Vec::new();
    for (label, placement) in [
        ("clustered (100/file)", Placement::ByKindChunks { events_per_file: 100 }),
        ("clustered (20/file)", Placement::ByKindChunks { events_per_file: 20 }),
        ("striped (100 files)", Placement::Striped { files: 100 }),
    ] {
        let rows = tables::objrep_table(10_000, &[0.01], placement);
        cells.push(vec![Cell::from(label), Cell::f(rows[0].ratio, 1)]);
    }
    r.table(&["placement", "ratio"], &cells);
    r.note("(even the friendliest placement cannot make whole files dense");
    r.note(" in a fresh sparse selection)");
    r.end_section();
}

fn stripe(o: &mut Opts) {
    let r = &mut o.report;
    r.section(
        "Striped transfer (m hosts → 1, 10 Mb/s NICs, shared 45 Mb/s WAN,\n\
         20 MB file, 2 streams per node)",
    );
    let cells: Vec<Vec<Cell>> = tables::stripe_table(20 * MB, 2)
        .iter()
        .map(|x| vec![Cell::from(x.nodes), Cell::f(x.mbps, 1)])
        .collect();
    r.table(&["nodes", "Mb/s"], &cells);
    r.note("(GridFTP feature list: 'striped data transfer (m hosts to n");
    r.note(" hosts)'; one box cannot drive the WAN alone — §5.3)");
    r.end_section();
}

/// Chaos soak comparison: the same publish/replicate workload with no
/// chaos layer, with an installed-but-empty schedule (must cost exactly
/// nothing), and with three seeded fault plans. Exports the failure-path
/// counters so BENCH files can track fault-handling overhead. The grid and
/// workload are `soak_quick`'s, or the `--scenario` file's; each mode
/// replaces only the seed and the faults.
fn chaos(o: &mut Opts) {
    use gdmp_workloads::scenario::{run_soak_scenario, Faults};
    let base = or_die(o.args.base_scenario("soak_quick"));
    let counter_sum = |out: &gdmp_workloads::SoakOutcome, name: &str| -> u64 {
        out.registry
            .metrics_snapshot()
            .iter()
            .filter(|(n, _, _)| n == name)
            .map(|(_, _, v)| match v {
                gdmp_telemetry::MetricValue::Counter(c) => *c,
                _ => 0,
            })
            .sum()
    };
    let seeded = || Faults::Seeded { catalog_chaos: None };
    let modes = [
        ("off", 0, Faults::None),
        ("empty", 0, Faults::Empty),
        ("seed=11", 11, seeded()),
        ("seed=42", 42, seeded()),
        ("seed=1337", 1337, seeded()),
    ];
    let mut rows = Vec::new();
    for (label, seed, faults) in modes {
        let out = or_die(run_soak_scenario(&Scenario { seed, faults, ..base.clone() }));
        rows.push(vec![
            Cell::from(label),
            Cell::from(out.published),
            Cell::from(out.replicated),
            Cell::f(out.final_clock_ns as f64 / 1e9, 1),
            Cell::from(out.converged()),
            Cell::from(counter_sum(&out, "rpc_failures")),
            Cell::from(counter_sum(&out, "source_unreachable")),
            Cell::from(counter_sum(&out, "recovery_verdicts")),
            Cell::from(counter_sum(&out, "backoff_waits")),
            Cell::from(counter_sum(&out, "breaker_trips")),
            Cell::from(counter_sum(&out, "notices_journaled")),
            Cell::from(counter_sum(&out, "notices_replayed")),
            Cell::from(counter_sum(&out, "resync_repairs")),
            Cell::from(counter_sum(&out, "replications_deferred")),
        ]);
    }
    let r = &mut o.report;
    r.section("Chaos soak: failure-path cost (off vs empty schedule vs seeded)");
    r.table(
        &[
            "mode",
            "published",
            "replicated",
            "final_s",
            "converged",
            "rpc_fail",
            "unreach",
            "verdicts",
            "backoffs",
            "trips",
            "journaled",
            "replayed",
            "resyncs",
            "deferred",
        ],
        &rows,
    );
    r.note("(the off and empty rows must be identical: an installed-but-empty");
    r.note(" schedule is behaviourally inert — the inertness contract)");
    r.end_section();
}

/// Multi-source fetch comparison: the same hot file pulled over
/// asymmetric WAN paths with a single-source fetch, a striped
/// multi-source fetch, and a striped fetch whose fastest source crashes
/// mid-transfer (exercising range reassignment and plan rebuilds). The
/// grid comes from the `fetch` preset, or from `--scenario`.
fn fetch(o: &mut Opts) {
    use gdmp_bench::baselines::fetch_modes;
    let base = or_die(o.args.base_scenario("fetch"));
    let outcomes = or_die(fetch_modes(&base));
    let title = match &o.args.scenario {
        Some(path) => format!("Multi-source fetch: scenario `{}` ({path})", base.name),
        None => "Multi-source fetch: striping over asymmetric WAN paths \
                 (48 MB, cern/fnal/kek -> lyon)"
            .to_string(),
    };
    let r = &mut o.report;
    r.section(&title);
    let mut rows = Vec::new();
    let mut sources: Vec<String> = Vec::new();
    let single_mbps = outcomes[0].agg_mbps;
    let multi_mbps = outcomes[1].agg_mbps;
    for (label, out) in ["single", "multi", "multi+crash"].into_iter().zip(&outcomes) {
        if sources.is_empty() {
            sources = out.per_source_bytes.iter().map(|(s, _)| s.clone()).collect();
        }
        let mut row = vec![
            Cell::from(label),
            Cell::f(out.agg_mbps, 2),
            Cell::f(out.elapsed.as_secs_f64(), 1),
        ];
        for (_, bytes) in &out.per_source_bytes {
            row.push(Cell::f(*bytes as f64 / MB as f64, 1));
        }
        row.push(Cell::from(out.ranges_reassigned));
        row.push(Cell::from(out.plan_rebuilds));
        row.push(Cell::from(out.converged));
        rows.push(row);
    }
    let source_headers: Vec<String> = sources.iter().map(|s| format!("{s} MB")).collect();
    let mut headers = vec!["mode", "Mb/s", "elapsed s"];
    headers.extend(source_headers.iter().map(String::as_str));
    headers.extend(["reassigned", "rebuilds", "converged"]);
    r.table(&headers, &rows);
    r.note(&format!(
        "  striping speedup over best single path: {:.2}x ({:.2} vs {:.2} Mb/s)",
        multi_mbps / single_mbps,
        multi_mbps,
        single_mbps
    ));
    r.note("(single-source is bounded by the 20 Mb/s cern path; striping draws");
    r.note(" on the ~40 Mb/s aggregate, and survives a mid-transfer source crash)");
    r.end_section();
}

/// Catalog lookup scaling: the same deterministic lookup mix against the
/// central catalog alone and through the LRC/RLI federation, at 10, 50,
/// and 100 sites. The federation pays confirm RPCs for hints but keeps
/// every answer verified at an authoritative LRC.
fn catalog(o: &mut Opts) {
    use gdmp_bench::catalog::run_catalog_grid;
    if o.args.scenario.is_some() {
        return catalog_scenario(o);
    }
    let r = &mut o.report;
    // Wall ops/s is host-dependent; it appears in the human table only, so
    // `--json` output stays byte-identical across runs (the determinism
    // contract every figures subcommand honors).
    let wall = !r.is_json();
    r.section("Federated catalog: central vs LRC/RLI lookup at 10/50/100 sites");
    let rows: Vec<Vec<Cell>> = run_catalog_grid()
        .iter()
        .map(|p| {
            let mut row = vec![Cell::from(p.sites), Cell::from(p.mode), Cell::from(p.lookups)];
            if wall {
                row.push(Cell::f(p.wall_ops_per_sec, 0));
            }
            row.extend([
                Cell::f(p.final_clock_ns as f64 / 1e9, 1),
                Cell::from(p.rli_hits),
                Cell::from(p.fallbacks),
                Cell::from(p.scatters),
                Cell::from(p.false_positives),
                Cell::from(p.confirms),
                Cell::from(p.wrong_answers),
            ]);
            row
        })
        .collect();
    let mut headers = vec!["sites", "mode", "lookups"];
    if wall {
        headers.push("wall ops/s");
    }
    headers.extend(["sim s", "rli_hits", "fallbacks", "scatters", "fps", "confirms", "wrong"]);
    r.table(&headers, &rows);
    r.note("(wall ops/s is host-dependent: human table only, never in --json;");
    r.note(" every emitted column is sim-time deterministic. wrong must read 0");
    r.note(" — the never-wrong contract)");
    r.end_section();
}

/// `figures catalog --scenario <file>`: run the file's catalog-soak
/// workload and print its ladder split and never-wrong stats.
fn catalog_scenario(o: &mut Opts) {
    use gdmp_workloads::scenario::run_catalog_scenario;
    let scenario = or_die(o.args.base_scenario("catalog_quick"));
    let sites = scenario.topology.site_names().len();
    let out = or_die(run_catalog_scenario(&scenario));
    let r = &mut o.report;
    r.section(&format!(
        "Federated catalog soak: scenario `{}` ({})",
        scenario.name,
        o.args.scenario.as_deref().unwrap_or("-")
    ));
    r.table(
        &[
            "sites",
            "published",
            "lookups",
            "answered",
            "failed",
            "local",
            "rli",
            "fallback",
            "scatter",
            "degraded",
            "wrong",
            "sim s",
        ],
        &[vec![
            Cell::from(sites),
            Cell::from(out.published),
            Cell::from(out.lookups),
            Cell::from(out.answered),
            Cell::from(out.failed),
            Cell::from(out.via_local),
            Cell::from(out.via_rli),
            Cell::from(out.via_fallback),
            Cell::from(out.via_scatter),
            Cell::from(out.degraded_answers),
            Cell::from(out.stats.wrong_answers),
            Cell::f(out.final_clock_ns as f64 / 1e9, 1),
        ]],
    );
    r.note("(wrong must read 0 — the never-wrong contract; failed counts honest");
    r.note(" misses under chaos, never bad answers)");
    r.end_section();
}

/// Interned-id control plane: the probe mix at 50/100/200 sites, then the
/// Tier-0/1/2 grid soak's ladder split and replica hit rate. Wall-derived
/// columns (ops/s, wall s) are host-dependent and appear in the human
/// table only, so `--json` output stays byte-identical across runs.
fn grid(o: &mut Opts) {
    use gdmp_bench::grid::{grid_soak_points, run_control_plane_grid};
    if o.args.scenario.is_some() {
        return grid_scenario(o);
    }
    let r = &mut o.report;
    let wall = !r.is_json();
    // The title and notes are part of the pinned `--json` emission. The
    // string-keyed maps they name were retired once these checksums, which
    // both sides reproduced, were committed (DESIGN.md §16).
    r.section("Interned-id control plane: string-keyed vs interned probes at 50/100/200 sites");
    let rows: Vec<Vec<Cell>> = run_control_plane_grid()
        .iter()
        .map(|p| {
            let mut row = vec![Cell::from(p.sites), Cell::from(p.ops)];
            if wall {
                row.push(Cell::f(p.ops_per_sec, 0));
            }
            row.push(Cell::from(format!("{:#018x}", p.checksum)));
            row
        })
        .collect();
    let mut headers = vec!["sites", "ops"];
    if wall {
        headers.push("ops/s");
    }
    headers.push("checksum");
    r.table(&headers, &rows);
    r.note("(both control planes answer the same probes — the checksum proves");
    r.note(" it; only the key plumbing differs)");

    let rows: Vec<Vec<Cell>> = grid_soak_points()
        .iter()
        .map(|p| {
            let mut row = vec![
                Cell::from(p.sites),
                Cell::from(p.lookups),
                Cell::from(p.publishes),
                Cell::from(p.fetches),
                Cell::f(p.replica_hit_rate, 3),
                Cell::from(p.fallbacks),
                Cell::from(p.scatters),
                Cell::from(p.confirms),
                Cell::f(p.final_clock_ns as f64 / 1e9, 1),
                Cell::from(p.wrong_answers),
            ];
            if wall {
                row.push(Cell::f(p.wall_s, 2));
            }
            row
        })
        .collect();
    let mut headers = vec![
        "sites",
        "lookups",
        "publishes",
        "fetches",
        "hit rate",
        "fallbacks",
        "scatters",
        "confirms",
        "sim s",
        "wrong",
    ];
    if wall {
        headers.push("wall s");
    }
    r.table(&headers, &rows);
    r.note("(Tier-0/1/2 topology, Zipf lookup/publish/fetch mix; wrong must");
    r.note(" read 0 — the never-wrong contract holds at every scale)");
    r.end_section();
}

/// `figures grid --scenario <file>`: run the file's grid-soak workload and
/// print its deterministic op counts and ladder split.
fn grid_scenario(o: &mut Opts) {
    use gdmp_workloads::scenario::run_grid_scenario;
    let scenario = or_die(o.args.base_scenario("grid_quick"));
    let out = or_die(run_grid_scenario(&scenario));
    let r = &mut o.report;
    r.section(&format!(
        "Grid-scale soak: scenario `{}` ({})",
        scenario.name,
        o.args.scenario.as_deref().unwrap_or("-")
    ));
    r.table(
        &[
            "sites",
            "lookups",
            "publishes",
            "fetches",
            "hit rate",
            "fallbacks",
            "scatters",
            "confirms",
            "sim s",
            "wrong",
        ],
        &[vec![
            Cell::from(out.sites),
            Cell::from(out.lookups),
            Cell::from(out.publishes),
            Cell::from(out.fetches),
            Cell::f(out.replica_hit_rate(), 3),
            Cell::from(out.fallbacks),
            Cell::from(out.scatters),
            Cell::from(out.confirms),
            Cell::f(out.final_clock_ns as f64 / 1e9, 1),
            Cell::from(out.wrong_answers),
        ]],
    );
    r.note("(wrong must read 0 — the never-wrong contract holds at every scale)");
    r.end_section();
}

/// Sim-time timeline of the striped fetch with a mid-transfer source
/// crash: per-link utilisation, fetch throughput, breaker state, and queue
/// depths as terminal sparklines plus the deterministic TSV export, then
/// the critical path of the measured fetch ("where did the time go").
fn timeline(o: &mut Opts) {
    use gdmp_bench::{render_timeline, timeline_tsv};
    use gdmp_telemetry::analysis::{critical_path, render_critical_path, trace_roots};
    use gdmp_workloads::scenario::run_fetch_scenario;
    let base = or_die(o.args.base_scenario("fetch"));
    let scenario = or_die(base.with_striped_policy().with_fastest_source_crash());
    let title = match &o.args.scenario {
        Some(path) => format!(
            "Sim-time timeline: scenario `{}` ({path}), striped, fastest source crashes",
            scenario.name
        ),
        None => {
            "Sim-time timeline: striped 48 MB fetch, fastest source crashes at t0+3 s".to_string()
        }
    };
    let r = &mut o.report;
    r.section(&title);
    let out = or_die(run_fetch_scenario(&scenario));
    r.block(&render_timeline(&out.registry, 64));
    let spans = out.registry.spans();
    // The measured fetch is the last replicate root (seeding came first).
    if let Some(root) = trace_roots(&spans)
        .iter()
        .copied()
        .rfind(|&id| spans.iter().any(|s| s.id == id && s.name == "replicate"))
    {
        r.note("measured fetch, latency attribution:");
        r.block(&render_critical_path(&critical_path(&spans, root)));
    }
    r.note("deterministic TSV (one row per 500 ms bucket):");
    r.block(&timeline_tsv(&out.registry));
    r.end_section();
}

/// Figure 1 as an executable walk-through: application description →
/// object ids → file names → physical locations.
fn fig1(o: &mut Opts) {
    o.report.section("Figure 1: the catalog mapping chain (executable walk-through)");
    let builder = Grid::builder("cms")
        .site(SiteConfig::named("cern", "cern.ch", 1))
        .site(SiteConfig::named("anl", "anl.gov", 2))
        .trust_all();
    let mut grid = if o.trace { builder.telemetry().build() } else { builder.build() };
    let reg = grid.telemetry().clone();
    Population::aod(1_000, 100).scaled(0.01).build(&mut grid, "cern").expect("population");

    // Application metadata catalog: a selection tag.
    let events: Vec<u64> = (0..1_000).step_by(37).collect();
    grid.site_mut("cern").unwrap().tags.define("golden", events);
    let tags = &grid.site("cern").unwrap().tags;
    let objects = tags.objects("golden", ObjectKind::Aod).expect("tag defined");
    o.report.note("  application description: tag \"golden\"");
    o.report.note(&format!(
        "  → set of object identifiers: {} logical oids (via tag catalog)",
        objects.len()
    ));

    // Object→file catalog.
    let (per_file, missing) = grid.object_view.collective_lookup(&objects);
    assert!(missing.is_empty());
    o.report.note(&format!(
        "  → set of file names: {} files (via object→file catalog)",
        per_file.len()
    ));

    // File replica catalog.
    let mut locations = 0;
    for file in per_file.keys() {
        locations += grid.catalog.locate(file).expect("published").len();
    }
    o.report.note(&format!(
        "  → set of file locations: {locations} physical replicas (via replica catalog)"
    ));
    o.report.telemetry(&reg);
    o.report.end_section();
}

/// Figure 2 as an executable trace: file replication vs object replication
/// of the same event selection.
fn fig2(o: &mut Opts) {
    o.report.section("Figure 2: file replication (top) vs object replication (bottom)");
    let builder = Grid::builder("cms")
        .site(SiteConfig::named("cern", "cern.ch", 1))
        .site(SiteConfig::named("anl", "anl.gov", 2))
        .trust_all();
    let mut grid = if o.trace { builder.telemetry().build() } else { builder.build() };
    let reg = grid.telemetry().clone();
    let files = Population::aod(500, 100).scaled(0.1).build(&mut grid, "cern").expect("population");

    // Top: file replication of one whole database file.
    let r = grid.replicate("anl", &files[0]).expect("file replication");
    o.report.note(&format!(
        "  file replication:   {} ({} bytes) cern → anl in {:.1}s; attached at anl: {}",
        r.lfn,
        r.bytes,
        r.total_time().as_secs_f64(),
        grid.site("anl").unwrap().federation.is_attached(&r.lfn),
    ));

    // Bottom: object replication of a sparse selection.
    let wanted: Vec<LogicalOid> =
        (100..500).step_by(25).map(|e| LogicalOid::new(e, ObjectKind::Aod)).collect();
    let obj = grid
        .object_replicate("anl", &wanted, ObjectReplicationConfig::default())
        .expect("object replication");
    o.report.note(&format!(
        "  object replication: {} objects via copier → {} extraction file(s), {} bytes, {:.1}s",
        obj.objects_moved,
        obj.chunk_files.len(),
        obj.bytes_moved,
        obj.makespan.as_secs_f64(),
    ));
    o.report.note(&format!(
        "  destination reads both through the same persistency layer: {}",
        grid.site_mut("anl").unwrap().federation.get(LogicalOid::new(125, ObjectKind::Aod)).is_ok()
    ));
    o.report.telemetry(&reg);
    o.report.end_section();
}
