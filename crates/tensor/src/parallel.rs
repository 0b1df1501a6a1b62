//! Dependency-free scoped-thread parallel helpers.
//!
//! All parallelism in the workspace goes through this module:
//! [`num_threads`] reads the `NAZAR_NUM_THREADS` environment knob once
//! (defaulting to the machine's available parallelism), [`par_row_bands`]
//! splits a row-major output buffer into contiguous row bands for the
//! matmul kernel, and [`par_map`] fans a work list out across scoped
//! threads while preserving input order — which is what keeps parallel
//! runs deterministic.
//!
//! Everything is built on [`std::thread::scope`]; no external crates.

use nazar_obs::Histogram;
use std::sync::OnceLock;

static FANOUT: Histogram = Histogram::new_volatile(
    "nazar_tensor_parallel_fanout_width",
    &[("op", "par_map")],
    nazar_obs::POW2_BUCKETS,
);
static BAND_FANOUT: Histogram = Histogram::new_volatile(
    "nazar_tensor_parallel_fanout_width",
    &[("op", "par_row_bands")],
    nazar_obs::POW2_BUCKETS,
);

/// Parses a `NAZAR_NUM_THREADS` value: a positive integer. The error names
/// the rejected value.
fn parse_threads(s: &str) -> Result<usize, String> {
    match s.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{s:?} is not a positive integer")),
    }
}

/// Number of worker threads to use, read once from `NAZAR_NUM_THREADS`.
///
/// Unset means [`std::thread::available_parallelism`] (or 1 if that is
/// unavailable); so does anything but a positive integer, after one stderr
/// line saying so.
pub fn num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        let default = std::thread::available_parallelism().map_or(1, |n| n.get());
        match std::env::var("NAZAR_NUM_THREADS").map(|v| parse_threads(&v)) {
            Ok(Ok(n)) => n,
            Ok(Err(e)) => {
                eprintln!("nazar-tensor: NAZAR_NUM_THREADS: {e}; using {default} threads");
                default
            }
            Err(_) => default,
        }
    })
}

/// Splits `out` (an `n_rows` x `row_len` row-major buffer) into at most
/// `threads` contiguous row bands and runs `f(first_row, band)` on each,
/// in parallel when `threads > 1`.
///
/// Bands are disjoint, so each invocation of `f` owns its slice; results
/// are bitwise independent of the thread count as long as `f` itself only
/// depends on `first_row` and the band contents.
///
/// # Panics
///
/// Panics if `out.len() != n_rows * row_len` or a worker thread panics.
pub fn par_row_bands<T, F>(out: &mut [T], n_rows: usize, row_len: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert_eq!(out.len(), n_rows * row_len, "row band buffer length");
    let threads = threads.clamp(1, n_rows.max(1));
    if threads <= 1 || n_rows == 0 {
        BAND_FANOUT.observe(1.0);
        f(0, out);
        return;
    }
    BAND_FANOUT.observe(threads as f64);
    let rows_per_band = n_rows.div_ceil(threads);
    let f = &f;
    std::thread::scope(|s| {
        for (band_idx, band) in out.chunks_mut(rows_per_band * row_len).enumerate() {
            s.spawn(move || f(band_idx * rows_per_band, band));
        }
    });
}

/// Maps `f` over `items` on up to [`num_threads`] scoped threads,
/// returning results in input order.
///
/// Falls back to a sequential map when there is one worker or one item,
/// so callers need no special casing. Panics from `f` propagate.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_with(items, num_threads(), f)
}

/// [`par_map`] with an explicit worker count instead of the
/// `NAZAR_NUM_THREADS` default.
///
/// This is the determinism-audit hook: because results are merged in input
/// order, the output is bitwise independent of `threads`, and test suites
/// (e.g. `nazar-log`'s differential query suite) assert exactly that by
/// sweeping widths within one process — something the env knob cannot do,
/// since [`num_threads`] latches on first read.
pub fn par_map_with<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        FANOUT.observe(1.0);
        return items.into_iter().map(f).collect();
    }
    FANOUT.observe(threads as f64);
    // Deal items into `threads` contiguous batches, preserving order.
    let per_batch = items.len().div_ceil(threads);
    let mut batches: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut items = items;
    while !items.is_empty() {
        let rest = items.split_off(items.len().min(per_batch));
        batches.push(std::mem::replace(&mut items, rest));
    }
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = batches
            .into_iter()
            .map(|batch| s.spawn(move || batch.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_parsing_rejects_what_is_not_a_positive_integer() {
        assert_eq!(parse_threads("4"), Ok(4));
        assert_eq!(parse_threads(" 1\n"), Ok(1));
        for bad in ["two", "0", "-1", "", "1.5"] {
            let err = parse_threads(bad).expect_err("rejected");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn par_map_preserves_order() {
        let out = par_map((0..100).collect::<Vec<usize>>(), |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<usize>>());
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert!(par_map(Vec::<usize>::new(), |i| i).is_empty());
        assert_eq!(par_map(vec![7], |i| i + 1), vec![8]);
    }

    #[test]
    fn row_bands_cover_every_row_once() {
        let (n, d) = (13, 4);
        let mut buf = vec![0.0f32; n * d];
        for threads in [1, 2, 4, 32] {
            buf.fill(0.0);
            par_row_bands(&mut buf, n, d, threads, |first_row, band| {
                for (r, row) in band.chunks_mut(d).enumerate() {
                    for v in row.iter_mut() {
                        *v += (first_row + r) as f32;
                    }
                }
            });
            for (i, row) in buf.chunks(d).enumerate() {
                assert!(row.iter().all(|&v| v == i as f32), "threads {threads}");
            }
        }
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }
}
