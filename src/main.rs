//! `lightne` — command-line interface to the LightNE reproduction.
//!
//! ```text
//! lightne generate --profile oag --scale 0.0001 --out graph.lng2 [--seed N]
//! lightne compress --graph graph.txt --out graph.lng2 [--codec C]
//!                  [--block-size B]
//! lightne stats    --graph graph.lng2
//! lightne embed    --graph graph.lng2 --out emb.txt [--dim D] [--window T]
//!                  [--ratio R] [--no-downsample] [--no-propagation]
//!                  [--weighted] [--seed N]
//!                  [--mmap] [--save-artifacts DIR] [--resume-from DIR]
//!                  [--strict-resume] [--stats-json PATH]
//! lightne classify --graph graph.lng2 --labels graph.lng2.labels
//!                  --embedding emb.txt [--train-ratio F] [--seed N]
//! lightne linkpred --graph graph.lng2 [--holdout F] [--dim D] [--window T]
//!                  [--ratio R] [--negatives K] [--seed N]
//! lightne quality  [--profiles a,b,..] [--target-n N] [--dim D] [--seed N]
//! ```
//!
//! `--threads N` (any command) sizes the rayon worker pool (0 = one per
//! core); an option a command does not read is an error, not ignored.
//! Every graph path, read or written, follows one rule: a name ending in
//! `.lng2` is the compressed container, anything else a text edge list
//! (`--weighted` expects `u v w` lines). The container is made by
//! `compress` (codecs: `arice` (default, per-block adaptive Golomb–Rice),
//! `byte` (the paper's parallel-byte format) and `zeta1`..`zeta8`
//! (smaller than `arice` on web graphs, slower to decode); `--block-size`
//! in `1..=4294967295`, default 64) and by `generate`, which writes the
//! one `compress` writes with its defaults. The text list's first line
//! records the vertex count, so isolated vertices survive it. The binary
//! CSR dump of earlier builds is retired: a path ending in its extension
//! is an error naming the two formats instead.
//! `generate` writes `<out>.labels` alongside classification profiles.
//!
//! `embed` runs on what the file is: a `.lng2` container is consumed
//! directly — decoded on the fly, and with `--mmap` memory-mapped
//! out-of-core so the adjacency never touches the heap — anything else
//! as CSR. Embeddings are byte-identical across all formats.
//!
//! `embed` can checkpoint each stage's output (`--save-artifacts DIR`
//! writes the sparsifier COO, NetMF matrix, and initial embedding) and
//! resume a later run from the deepest artifact found (`--resume-from
//! DIR`); `--stats-json PATH` dumps the per-stage wall time, counters,
//! and peak heap bytes.
//! The numeric kernels pick their SIMD tier at runtime from the CPU's
//! feature bits; the chosen tier and the detected feature set are printed
//! and recorded in `--stats-json`. The implementation lives in
//! [`lightne::cli`].
//!
//! `quality` runs the embedding-quality scenario matrix — every
//! generator profile (or a `--profiles` subset) × classification / link
//! prediction / structure preservation — and prints one primary metric
//! per cell; the committed `results/BENCH_quality.json` trajectory and
//! its CI gate use the same matrix via the `bench_quality_json` binary.
//!
//! On resume, artifacts are validated against a per-file checksum
//! manifest; corrupt or uncommitted files are skipped and the run
//! degrades to the deepest stage that is still trustworthy.
//! `--strict-resume` turns any invalid artifact into a hard error
//! instead. In builds with the `failpoints` feature, `--fail-point
//! point=action` arms deterministic fault injection for crash testing;
//! actions are `io-error`, `truncate:N`, `bitflip:SEED`, and `panic`.

#![forbid(unsafe_code)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut stdout = std::io::stdout();
    match lightne::cli::run(&args, &mut stdout) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: lightne <generate|compress|stats|embed|classify|linkpred|quality> [options]\n\
                 see the README or `src/main.rs` for the option list"
            );
            ExitCode::FAILURE
        }
    }
}
