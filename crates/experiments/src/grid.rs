//! The one shape every study has: rows × columns × replicas of runs, fanned
//! out in one batch, then reduced to tables.
//!
//! A study names its rows (the swept axis) and columns (usually the
//! algorithms), and supplies one closure that builds the work item of a
//! cell's replica and one that runs it. `None` skips that replica; a cell
//! with no runs reads NaN.
//!
//! The grid owns the seed rule: a run's engine seed depends on the base
//! seed, the study's salt and the replica index only ([`run_seed`]). So
//! every cell of one replica runs on the same seed (common random
//! numbers), and a gap between two columns comes from what they vary, not
//! from their seeds. Fault sets and fault schedules are drawn by the
//! studies from their own [`derive_seed`] streams, which every column
//! shares too.
//!
//! Only crate-root names are imported, so the `sweep` binary compiles this
//! same file as its own module.

use crate::{parallel_map_with_progress, ExperimentConfig, Table};
use wormsim_metrics::SimReport;

/// A study's runs: one result list per (row, column) cell, a
/// [`SimReport`] per run unless the study's runs return more.
pub(crate) struct Grid<R = SimReport> {
    rows: Vec<String>,
    columns: Vec<String>,
    replicas: usize,
    /// Row-major; each cell holds its replicas' results in replica order.
    cells: Vec<Vec<R>>,
}

impl<R> Grid<R> {
    /// The layout: row labels, column names and replicas per cell.
    pub(crate) fn new<L: ToString>(
        rows: impl IntoIterator<Item = L>,
        columns: Vec<String>,
        replicas: usize,
    ) -> Grid<R> {
        Grid {
            rows: rows.into_iter().map(|r| r.to_string()).collect(),
            columns,
            replicas,
            cells: Vec::new(),
        }
    }

    /// Build every cell's items with `spec(row, column, replica, seed)`,
    /// `seed` being [`run_seed`] of `salt` and the replica, and run them in
    /// one [`parallel_map_with_progress`] batch tagged `label`. The first
    /// error in row, column, replica order is returned.
    pub(crate) fn run<S: Sync, E: Send>(
        mut self,
        cfg: &ExperimentConfig,
        label: &str,
        salt: u64,
        spec: impl Fn(usize, usize, usize, u64) -> Option<S>,
        run: impl Fn(&S) -> Result<R, E> + Sync,
    ) -> Result<Grid<R>, E>
    where
        R: Send,
    {
        let (mut items, mut owners) = (Vec::new(), Vec::new());
        for r in 0..self.rows.len() {
            for c in 0..self.columns.len() {
                for p in 0..self.replicas {
                    if let Some(item) = spec(r, c, p, run_seed(cfg.base_seed, salt, p)) {
                        items.push(item);
                        owners.push(r * self.columns.len() + c);
                    }
                }
            }
        }
        let reports = parallel_map_with_progress(&items, cfg.threads, cfg.progress, label, run);
        self.cells = (0..self.rows.len() * self.columns.len())
            .map(|_| Vec::new())
            .collect();
        for (cell, report) in owners.into_iter().zip(reports) {
            self.cells[cell].push(report?);
        }
        Ok(self)
    }

    /// A grid of the picked `(row, label)` rows, in pick order, each
    /// relabelled: how studies that share runs take their rows of one
    /// grid. (`sweep`, which compiles this file too, shares no runs.)
    #[allow(dead_code)]
    pub(crate) fn select<L: ToString>(&self, rows: impl IntoIterator<Item = (usize, L)>) -> Grid<R>
    where
        R: Clone,
    {
        let (mut labels, mut cells) = (Vec::new(), Vec::new());
        for (r, label) in rows {
            labels.push(label.to_string());
            let row = r * self.columns.len()..(r + 1) * self.columns.len();
            cells.extend(self.cells[row].iter().cloned());
        }
        Grid {
            rows: labels,
            columns: self.columns.clone(),
            replicas: self.replicas,
            cells,
        }
    }

    /// The same layout with `f` of every run's result.
    #[allow(dead_code)]
    pub(crate) fn map<T>(&self, f: impl Fn(&R) -> T) -> Grid<T> {
        Grid {
            rows: self.rows.clone(),
            columns: self.columns.clone(),
            replicas: self.replicas,
            cells: self
                .cells
                .iter()
                .map(|runs| runs.iter().map(&f).collect())
                .collect(),
        }
    }

    /// The results of one cell, in replica order (empty if skipped).
    pub(crate) fn cell(&self, row: usize, column: usize) -> &[R] {
        &self.cells[row * self.columns.len() + column]
    }

    /// One row per grid row, one column per grid column: each cell's mean
    /// of `value` over its runs (see [`mean_finite`]).
    pub(crate) fn table(
        &self,
        title: impl Into<String>,
        axis: &str,
        value: impl Fn(&R) -> f64,
    ) -> Table {
        self.reduce(title, axis, |runs| mean_finite(runs.iter().map(&value)))
    }

    /// [`Grid::table`] with a reducer over a cell's whole report list.
    pub(crate) fn reduce(
        &self,
        title: impl Into<String>,
        axis: &str,
        cell: impl Fn(&[R]) -> f64,
    ) -> Table {
        let mut table = Table::new(title, axis, self.columns.clone());
        for (r, label) in self.rows.iter().enumerate() {
            let values = (0..self.columns.len()).map(|c| cell(self.cell(r, c)));
            table.push_row(label.clone(), values.collect());
        }
        table
    }
}

/// The `derive_seed` index that engine seeds, and no fault-set or
/// schedule stream, put in its second slot: a run seed never equals the
/// seed of the patterns or schedules it runs on.
const ENGINE_STREAM: u64 = u64::MAX;

/// The engine seed of every run of a study's replica `replica`: one per
/// (base seed, study salt, replica), whatever the row or column.
fn run_seed(base: u64, salt: u64, replica: usize) -> u64 {
    derive_seed(base, salt, ENGINE_STREAM, replica as u64)
}

/// Derive a seed from the experiment base seed and three indices
/// (splitmix64 over the packed indices): the engine seeds of
/// [`run_seed`], and the studies' fault-set and schedule streams.
pub(crate) fn derive_seed(base: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut z = base
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(c.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The mean of the finite `values`, NaN when none is: a run that
/// delivered nothing has no latency, and a skipped cell has no runs.
pub(crate) fn mean_finite(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .filter(|v| v.is_finite())
        .fold((0.0, 0u32), |(sum, n), v| (sum + v, n + 1));
    sum / n as f64
}
