//! Exhaustive-interleaving model checks for the two synchronization
//! protocols the engine relies on:
//!
//! 1. the stop/interrupt-reason pair of the parallel stable enumerator's
//!    governor in `crates/semantics/src/stable_solver.rs` — the first
//!    worker to trip latches the reason, then raises `stopped` with
//!    `Release`; workers poll it with `Acquire` and must then see the
//!    reason.
//! 2. the server's publish cell in `crates/server/src/lib.rs` — the
//!    writer thread builds a snapshot and swaps the `Mutex<Arc<_>>`
//!    cell; readers clone under the lock and must observe both a
//!    monotone epoch and the snapshot contents that epoch promises.
//!
//! There is no loom in the vendored dependency set, so the checker is
//! hand-rolled: program state is a small `Clone + Hash` struct, each
//! thread is a program counter, and a DFS enumerates every interleaving
//! (memoized on full states, so the search is exhaustive and finite).
//! Weak memory is modeled with *views*: a bitmask of publication events
//! per thread. Plain writes only enter another thread's view through a
//! Release→Acquire edge on an atomic (or a mutex critical section);
//! `Relaxed` accesses move values but never views. A thread that reads
//! data whose publication event is missing from its view has observed
//! uninitialized/stale memory — the model reports it as a race.
//!
//! Every positive check is paired with a negative control: the same
//! protocol with the ordering deliberately weakened (`Relaxed` stop
//! store, epoch published before the snapshot is written) must make
//! the checker report a violation.
//! That proves the search actually distinguishes the orderings and is
//! not vacuously green.

use std::collections::HashSet;
use std::hash::Hash;

/// DFS over every interleaving from `init`. `moves` lists the enabled
/// transitions of a state; `apply` executes one (returning `Err` on a
/// protocol violation); `at_end` checks terminal states (no enabled
/// moves). Returns the number of distinct states explored.
fn explore<S, M, FM, FA, FF>(init: S, moves: FM, apply: FA, at_end: FF) -> Result<usize, String>
where
    S: Clone + Eq + Hash,
    M: Clone,
    FM: Fn(&S) -> Vec<M>,
    FA: Fn(&S, &M) -> Result<S, String>,
    FF: Fn(&S) -> Result<(), String>,
{
    let mut visited: HashSet<S> = HashSet::new();
    visited.insert(init.clone());
    let mut stack = vec![init];
    while let Some(s) = stack.pop() {
        let ms = moves(&s);
        if ms.is_empty() {
            at_end(&s)?;
            continue;
        }
        for m in &ms {
            let next = apply(&s, m)?;
            if visited.insert(next.clone()) {
                stack.push(next);
            }
        }
    }
    Ok(visited.len())
}

/// An atomic location with an attached view: the set of publication
/// events released into it. `Relaxed` accesses touch `val` only.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Cell {
    val: u32,
    view: u16,
}

impl Cell {
    fn new(val: u32) -> Self {
        Cell { val, view: 0 }
    }
}

// ---------------------------------------------------------------------
// Model 1: the stop/interrupt-reason pair. A failing worker latches the
// interrupt reason, then raises `stop` with Release; pollers that
// observe `stop` with Acquire read the reason.
// ---------------------------------------------------------------------

#[derive(Clone, PartialEq, Eq, Hash)]
struct StopState {
    stop: Cell,
    /// pcs[0] is the failer (0 = write reason, 1 = raise stop);
    /// pcs[1..] are pollers (0 = polling, 1 = done).
    pcs: Vec<u8>,
    views: Vec<u16>,
}

const REASON_WRITTEN: u16 = 1;

fn stop_apply(s: &StopState, tid: usize, release_store: bool) -> Result<StopState, String> {
    let mut n = s.clone();
    if tid == 0 {
        match s.pcs[0] {
            0 => {
                n.views[0] |= REASON_WRITTEN;
                n.pcs[0] = 1;
            }
            _ => {
                n.stop.val = 1;
                if release_store {
                    n.stop.view |= n.views[0];
                }
                n.pcs[0] = 2;
            }
        }
    } else {
        // Poller observes stop == 1 (loads of 0 are no-op spins).
        n.views[tid] |= s.stop.view;
        if n.views[tid] & REASON_WRITTEN == 0 {
            return Err(format!(
                "poller {tid} acted on stop without the interrupt reason visible"
            ));
        }
        n.pcs[tid] = 1;
    }
    Ok(n)
}

fn stop_explore(release_store: bool) -> Result<usize, String> {
    let init = StopState {
        stop: Cell::new(0),
        pcs: vec![0, 0, 0],
        views: vec![0, 0, 0],
    };
    explore(
        init,
        |s: &StopState| {
            let mut out = Vec::new();
            if s.pcs[0] < 2 {
                out.push(0usize);
            }
            for tid in 1..s.pcs.len() {
                // A poller only takes a visible step once stop is up.
                if s.pcs[tid] == 0 && s.stop.val == 1 {
                    out.push(tid);
                }
            }
            out
        },
        |s, &tid| stop_apply(s, tid, release_store),
        |_| Ok(()),
    )
}

#[test]
fn stop_flag_publishes_interrupt_reason() {
    let states = stop_explore(true).expect("Release store publishes the reason");
    println!("stop model (Release): {states} states explored");
}

#[test]
fn stop_flag_relaxed_store_is_caught() {
    let err = stop_explore(false).expect_err("a Relaxed stop store must hide the reason");
    assert!(err.contains("without the interrupt reason"), "{err}");
}

// ---------------------------------------------------------------------
// Model 2: the server's publish cell. The writer builds snapshot
// contents for epoch e (a plain-memory event), then swaps the
// `Mutex<Arc<KbSnapshot>>` cell; readers clone under the same lock.
// The mutex critical section is an Acquire/Release pair, so a reader
// that sees epoch e must also see e's contents, and the epochs one
// reader observes can never go backwards.
// ---------------------------------------------------------------------

const N_EPOCHS: u8 = 3;

fn data_bit(epoch: u8) -> u16 {
    1 << epoch
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct PubState {
    /// The publish cell: (epoch, released view).
    cell: (u8, u16),
    /// Writer progress: (epoch being produced, step within it 0|1).
    writer: (u8, u8),
    /// The writer's view: snapshot contents it has produced so far.
    writer_view: u16,
    /// Per-reader (reads done, last epoch seen, view).
    readers: Vec<(u8, u8, u16)>,
}

/// `publish_first` swaps the writer's two per-epoch steps — the bug
/// where the new epoch number lands in the cell before the snapshot
/// contents it names exist.
fn pub_apply(s: &PubState, tid: usize, publish_first: bool) -> Result<PubState, String> {
    let mut n = s.clone();
    if tid == 0 {
        let (epoch, step) = s.writer;
        let writing = (step == 0) != publish_first;
        if writing {
            // Produce epoch `epoch`'s snapshot contents (plain memory).
            n.writer_view |= data_bit(epoch);
        } else {
            // Lock; swap the cell. The critical section is an
            // Acquire/Release pair: join views both ways.
            n.writer_view |= s.cell.1;
            n.cell = (epoch, s.cell.1 | n.writer_view);
        }
        n.writer = if step == 0 {
            (epoch, 1)
        } else {
            (epoch + 1, 0)
        };
    } else {
        let r = tid - 1;
        let (done, last, view) = s.readers[r];
        // Lock; clone the Arc: acquire the cell's released view.
        let view = view | s.cell.1;
        let e = s.cell.0;
        if e > 0 && view & data_bit(e) == 0 {
            return Err(format!(
                "reader {r} observed epoch {e} without its snapshot contents visible"
            ));
        }
        if e < last {
            return Err(format!("reader {r} saw epoch go backwards: {last} -> {e}"));
        }
        n.readers[r] = (done + 1, e, view);
    }
    Ok(n)
}

fn pub_explore(publish_first: bool) -> Result<usize, String> {
    let init = PubState {
        cell: (0, 0),
        writer: (1, 0),
        writer_view: 0,
        readers: vec![(0, 0, 0); 2],
    };
    explore(
        init,
        |s: &PubState| {
            let mut out = Vec::new();
            if s.writer.0 <= N_EPOCHS {
                out.push(0usize);
            }
            for (r, &(done, _, _)) in s.readers.iter().enumerate() {
                if done < 2 {
                    out.push(r + 1);
                }
            }
            out
        },
        |s, &tid| pub_apply(s, tid, publish_first),
        |_| Ok(()),
    )
}

#[test]
fn epoch_publish_is_monotone_and_complete() {
    let states = pub_explore(false).expect("mutex publish is race-free");
    println!("publish model: {states} states explored");
    assert!(states > 50, "model unexpectedly small: {states} states");
}

#[test]
fn epoch_published_before_contents_is_caught() {
    let err = pub_explore(true).expect_err("publishing the epoch before its contents must fail");
    assert!(err.contains("without its snapshot contents"), "{err}");
}
