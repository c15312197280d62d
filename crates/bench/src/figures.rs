//! Figures 5 and 6: GridFTP throughput vs number of parallel streams.

use gdmp_gridftp::sim::{SessionCache, WanProfile};
use gdmp_workloads::FigureSweep;

use crate::parallel::{default_workers, par_map};

/// One data point of a throughput figure.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct FigRow {
    pub file_bytes: u64,
    pub streams: u32,
    pub buffer: u64,
    pub mbps: f64,
    pub retransmitted_segments: u64,
    pub timeouts: u64,
}

/// Run one figure's full parameter grid on the CERN↔ANL production
/// profile. Deterministic; ~40 packet-level simulations, fanned out over
/// worker threads one stream count at a time and merged back in grid
/// order, so the rows are byte-identical to a serial run.
pub fn fig_sweep(sweep: &FigureSweep) -> Vec<FigRow> {
    fig_sweep_on(sweep, WanProfile::cern_anl_production())
}

/// [`fig_sweep`] against an explicit profile (e.g. [`WanProfile::exact`]
/// for a packet-level reference run).
pub fn fig_sweep_on(sweep: &FigureSweep, profile: WanProfile) -> Vec<FigRow> {
    sweep_rows(sweep, profile, default_workers())
}

/// One task, and one [`SessionCache`], per stream count: its file sizes
/// share one cross-traffic warm-up.
fn sweep_rows(sweep: &FigureSweep, profile: WanProfile, workers: usize) -> Vec<FigRow> {
    let by_streams = par_map(&sweep.streams, workers, |&streams| {
        let mut cache = SessionCache::default();
        sweep
            .file_sizes
            .iter()
            .map(|&file_bytes| {
                let r = cache.session(&profile, file_bytes, streams, sweep.buffer, false).report;
                FigRow {
                    file_bytes,
                    streams,
                    buffer: sweep.buffer,
                    mbps: r.throughput_mbps(),
                    retransmitted_segments: r.retransmitted_segments,
                    timeouts: r.timeouts,
                }
            })
            .collect::<Vec<_>>()
    });
    // Back to `sweep.points()` order: file size major, stream count minor.
    (0..sweep.file_sizes.len()).flat_map(|f| by_streams.iter().map(move |rows| rows[f])).collect()
}

/// Render a figure as the paper's table: one row per file size, one column
/// per stream count.
pub fn render(sweep: &FigureSweep, rows: &[FigRow]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "{}", sweep.label).unwrap();
    write!(out, "{:>8} |", "file").unwrap();
    for s in &sweep.streams {
        write!(out, "{s:>7}").unwrap();
    }
    writeln!(out, "   (streams → Mb/s)").unwrap();
    writeln!(out, "{:-<8}-+{:-<width$}", "", "", width = 7 * sweep.streams.len()).unwrap();
    for &size in &sweep.file_sizes {
        write!(out, "{:>5} MB |", size / (1024 * 1024)).unwrap();
        for &s in &sweep.streams {
            let row = rows
                .iter()
                .find(|r| r.file_bytes == size && r.streams == s)
                .expect("sweep covers all points");
            write!(out, " {:6.1}", row.mbps).unwrap();
        }
        writeln!(out).unwrap();
    }
    out
}

/// The headline numbers a reader checks the figure shape against.
#[derive(Debug, Clone, Copy)]
pub struct FigShape {
    /// Best throughput of the largest file and the streams achieving it.
    pub peak_mbps: f64,
    pub peak_streams: u32,
    /// Single-stream throughput of the largest file.
    pub single_mbps: f64,
    /// Mean throughput of the smallest (1 MB) file across stream counts.
    pub small_file_mean: f64,
}

pub fn shape(sweep: &FigureSweep, rows: &[FigRow]) -> FigShape {
    let largest = *sweep.file_sizes.iter().max().expect("non-empty");
    let smallest = *sweep.file_sizes.iter().min().expect("non-empty");
    let big: Vec<&FigRow> = rows.iter().filter(|r| r.file_bytes == largest).collect();
    let peak = big.iter().max_by(|a, b| a.mbps.total_cmp(&b.mbps)).expect("non-empty");
    let single = big.iter().find(|r| r.streams == 1).expect("streams include 1");
    let small: Vec<f64> =
        rows.iter().filter(|r| r.file_bytes == smallest).map(|r| r.mbps).collect();
    FigShape {
        peak_mbps: peak.mbps,
        peak_streams: peak.streams,
        single_mbps: single.mbps,
        small_file_mean: small.iter().sum::<f64>() / small.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_has_figure5_shape() {
        let sweep = FigureSweep::quick(64 * 1024);
        let rows = fig_sweep(&sweep);
        assert_eq!(rows.len(), sweep.points().count());
        let shape = shape(&sweep, &rows);
        // Parallel untuned streams must beat a single one substantially.
        assert!(
            shape.peak_mbps > 2.0 * shape.single_mbps,
            "peak {:.1} vs single {:.1}",
            shape.peak_mbps,
            shape.single_mbps
        );
        // The 1 MB file is slow-start bound: well below the big-file peak.
        assert!(shape.small_file_mean < shape.peak_mbps / 1.5);
    }

    #[test]
    fn parallel_sweep_rows_equal_the_serial_ones() {
        // Each stream count's file sizes share one warm-up, whichever
        // worker runs them and in whatever order the workers pull them.
        // The rows must not tell, and must come back in grid order.
        let sweep = FigureSweep::quick(64 * 1024);
        let profile = WanProfile::cern_anl_production();
        let serial = sweep_rows(&sweep, profile, 1);
        let order: Vec<(u64, u32)> = serial.iter().map(|r| (r.file_bytes, r.streams)).collect();
        assert_eq!(order, sweep.points().collect::<Vec<_>>());
        for workers in [2, 3] {
            assert_eq!(sweep_rows(&sweep, profile, workers), serial, "{workers} sweep workers");
        }
    }

    #[test]
    fn tuned_quick_sweep_peaks_early() {
        let sweep = FigureSweep::quick(1024 * 1024);
        let rows = fig_sweep(&sweep);
        let shape = shape(&sweep, &rows);
        // Figure 6's signature: a single tuned stream is already within
        // 3× of the peak (vs ~8× for untuned).
        assert!(shape.single_mbps * 3.0 > shape.peak_mbps);
    }

    #[test]
    fn render_contains_every_size() {
        let sweep = FigureSweep::quick(64 * 1024);
        let rows = fig_sweep(&sweep);
        let text = render(&sweep, &rows);
        assert!(text.contains("1 MB"));
        assert!(text.contains("25 MB"));
    }
}
