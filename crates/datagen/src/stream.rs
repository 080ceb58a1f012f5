//! Streaming datagen: the paper-scale row-producer plumbing.
//!
//! [`batched`], [`DirtyRowStream`] and [`StreamColumn`] work on *row
//! iterators*: each generator exposes a `row_stream()` producing rows one at
//! a time from formulaic master data, so 10⁵–10⁷ rows can be fed into a
//! cleaning session batch-by-batch without ever holding all strings in
//! memory.  (A materialised [`dataset::Dataset`] is cut into insert change
//! sets by `mlnclean::ChangeSet::insert_batches` instead.)
//!
//! The streaming error injector corrupts cells with an independent per-cell
//! decision derived from `(seed, row, column)` alone, so the dirty stream is
//! deterministic and **batch-size independent**: the same seed yields the
//! same rows whether they are drawn one at a time or in 10⁶-row chunks.
//! (The batch-mode [`crate::make_dirty`] instead spends a global error
//! budget over a shuffled cell list — a protocol that inherently needs the
//! whole relation; the streaming protocol converges to the same rate by the
//! law of large numbers and is tested to stay within tolerance.)

use dataset::rng::{splitmix64, unit};

/// Batch adaptor over any row iterator: yields `Vec`s of up to `batch_size`
/// rows until the underlying iterator is exhausted — for producers that
/// never materialise a dataset.
#[derive(Debug, Clone)]
pub struct Batched<I> {
    inner: I,
    batch_size: usize,
}

impl<I: Iterator<Item = Vec<String>>> Iterator for Batched<I> {
    type Item = Vec<Vec<String>>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut batch = Vec::with_capacity(self.batch_size);
        for row in self.inner.by_ref() {
            batch.push(row);
            if batch.len() == self.batch_size {
                break;
            }
        }
        if batch.is_empty() {
            None
        } else {
            Some(batch)
        }
    }
}

/// Group `rows` into batches of `batch_size` (the last batch may be smaller;
/// a batch size of zero is treated as one).
pub fn batched<I: Iterator<Item = Vec<String>>>(rows: I, batch_size: usize) -> Batched<I> {
    Batched {
        inner: rows,
        batch_size: batch_size.max(1),
    }
}

/// One corruptible column of a streaming generator: the column index plus a
/// formulaic domain sampler used for replacement errors (maps a random draw
/// to *some* value of the attribute's domain, mirroring the batch injector's
/// "replace with another value from the same domain").
pub struct StreamColumn {
    pub(crate) col: usize,
    pub(crate) sample: Box<dyn Fn(u64) -> String + Send>,
}

impl StreamColumn {
    /// A corruptible column with its domain sampler.
    pub fn new(col: usize, sample: Box<dyn Fn(u64) -> String + Send>) -> Self {
        StreamColumn { col, sample }
    }
}

impl std::fmt::Debug for StreamColumn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamColumn")
            .field("col", &self.col)
            .finish_non_exhaustive()
    }
}

/// Streaming error injector: wraps a clean row iterator and corrupts each
/// eligible cell independently with probability `error_rate`, split between
/// typos and domain replacements by `replacement_ratio` (the paper's Rret).
///
/// Every decision is a pure function of `(seed, row index, column)` via
/// SplitMix64, so the dirty stream is deterministic, independent of batch
/// size, and needs O(1) memory.  Counters record how many errors were
/// actually injected so callers can report (and tests can bound) the
/// achieved rate.
pub struct DirtyRowStream<I> {
    inner: I,
    columns: Vec<StreamColumn>,
    error_rate: f64,
    replacement_ratio: f64,
    seed: u64,
    row: u64,
    eligible_cells: u64,
    typos: u64,
    replacements: u64,
}

impl<I> DirtyRowStream<I> {
    /// Wrap `inner`, corrupting the given columns at `error_rate` with the
    /// typo/replacement split `replacement_ratio`, all derived from `seed`.
    pub fn new(
        inner: I,
        columns: Vec<StreamColumn>,
        error_rate: f64,
        replacement_ratio: f64,
        seed: u64,
    ) -> Self {
        DirtyRowStream {
            inner,
            columns,
            error_rate: error_rate.clamp(0.0, 1.0),
            replacement_ratio: replacement_ratio.clamp(0.0, 1.0),
            seed,
            row: 0,
            eligible_cells: 0,
            typos: 0,
            replacements: 0,
        }
    }

    /// Number of errors injected so far (typos + replacements).
    pub fn injected_errors(&self) -> u64 {
        self.typos + self.replacements
    }

    /// Typos injected so far.
    pub fn typo_count(&self) -> u64 {
        self.typos
    }

    /// Replacement errors injected so far.
    pub fn replacement_count(&self) -> u64 {
        self.replacements
    }

    /// Eligible (corruptible) cells seen so far — the achieved error rate is
    /// [`DirtyRowStream::injected_errors`] over this.
    pub fn eligible_cells(&self) -> u64 {
        self.eligible_cells
    }

    /// Corrupt one cell in place; returns whether an error was recorded.
    fn corrupt(&mut self, column: usize, value: &mut String) -> bool {
        let StreamColumn { col, sample } = &self.columns[column];
        let cell =
            splitmix64(self.seed ^ splitmix64(self.row).rotate_left(17) ^ (*col as u64) << 1);
        if unit(splitmix64(cell ^ 0x01)) >= self.error_rate {
            return false;
        }
        let make_replacement = unit(splitmix64(cell ^ 0x02)) < self.replacement_ratio;
        if make_replacement {
            // Two draws at a different value of the domain; a formulaic
            // domain occasionally resamples the original, in which case we
            // fall through to a typo so the error budget is still spent.
            for attempt in [0x03u64, 0x04] {
                let candidate = sample(splitmix64(cell ^ attempt));
                if candidate != *value {
                    *value = candidate;
                    self.replacements += 1;
                    return true;
                }
            }
        }
        // Typo: delete one random character of the value.
        let chars: Vec<char> = value.chars().collect();
        if chars.is_empty() {
            return false;
        }
        let drop = (splitmix64(cell ^ 0x05) % chars.len() as u64) as usize;
        *value = chars
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != drop)
            .map(|(_, c)| *c)
            .collect();
        self.typos += 1;
        true
    }
}

impl<I: Iterator<Item = Vec<String>>> Iterator for DirtyRowStream<I> {
    type Item = Vec<String>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut row = self.inner.next()?;
        for c in 0..self.columns.len() {
            self.eligible_cells += 1;
            let mut value = std::mem::take(&mut row[self.columns[c].col]);
            self.corrupt(c, &mut value);
            row[self.columns[c].col] = value;
        }
        self.row += 1;
        Some(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HaiGenerator;
    use dataset::{Dataset, Schema};

    fn rows(ds: &Dataset) -> impl Iterator<Item = Vec<String>> + '_ {
        ds.tuples().map(|t| t.owned_values())
    }

    #[test]
    fn batches_cover_every_row_in_order() {
        let ds = HaiGenerator::default().with_rows(103).generate();
        let batches: Vec<_> = batched(rows(&ds), 13).collect();
        assert_eq!(batches.len(), 8);
        let mut rebuilt = Dataset::new(ds.schema().clone());
        for batch in &batches {
            rebuilt.extend_rows(batch.clone()).unwrap();
        }
        assert_eq!(rebuilt, ds, "streamed rows must reproduce the dataset");
    }

    #[test]
    fn stream_yields_fixed_size_batches() {
        let ds = HaiGenerator::default().with_rows(25).generate();
        let sizes: Vec<usize> = batched(rows(&ds), 10).map(|b| b.len()).collect();
        assert_eq!(sizes, vec![10, 10, 5]);
    }

    #[test]
    fn empty_dataset_streams_nothing() {
        let ds = Dataset::new(Schema::new(&["a"]));
        assert_eq!(batched(rows(&ds), 3).count(), 0);
    }

    #[test]
    fn zero_batch_size_is_clamped() {
        let ds = HaiGenerator::default().with_rows(3).generate();
        let sizes: Vec<usize> = batched(rows(&ds), 0).map(|b| b.len()).collect();
        assert_eq!(sizes, vec![1, 1, 1]);
    }
}
