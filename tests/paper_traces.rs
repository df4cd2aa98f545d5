//! Golden tests replaying the paper's worked example: the TRA trace of
//! Figure 6 and the TNRA trace of Figure 11, iteration by iteration,
//! against the published numbers.
//!
//! The paper prints values rounded to 3–4 decimals (and its own inputs
//! are rounded logarithms), so comparisons use a 2e-3 tolerance.

use authsearch_core::access::{IndexLists, TableFreqs};
use authsearch_core::toy::{toy_index, toy_query, toy_term_id};
use authsearch_core::types::DocOrderedLists;
use authsearch_core::{tnra, tra};

const EPS: f64 = 2e-3;

fn assert_close(got: f64, want: f64, what: &str) {
    assert!(
        (got - want).abs() < EPS,
        "{what}: got {got:.4}, paper says {want:.4}"
    );
}

#[test]
fn figure6_tra_trace() {
    let index = toy_index();
    let table = DocOrderedLists::from_index(&index);
    let query = toy_query();
    let lists = IndexLists::new(&index, &query);
    let freqs = TableFreqs::new(&table, &query);
    let (outcome, trace) = tra::run_traced(&lists, &freqs, &query, 2).unwrap();

    // Figure 6's iteration table: (thres, popped list, popped doc).
    // List indices: 0 = sleeps, 1 = in, 2 = the, 3 = dark.
    let expected: [(f64, Option<(usize, u32)>); 6] = [
        (0.8135, Some((2, 5))), // pop ⟨5, 0.265⟩ for 'the'
        (0.8115, Some((2, 3))), // pop ⟨3, 0.263⟩ for 'the'
        (0.7497, Some((2, 6))), // pop ⟨6, 0.200⟩ for 'the'
        (0.7095, Some((0, 6))), // pop ⟨6, 0.079⟩ for 'sleeps'
        (0.5201, Some((3, 6))), // pop ⟨6, 0.079⟩ for 'dark'
        (0.3306, None),         // terminate
    ];
    assert_eq!(trace.len(), expected.len(), "iteration count");
    for (it, (row, &(want_thres, want_pop))) in trace.iter().zip(&expected).enumerate() {
        assert_close(
            row.thres,
            want_thres,
            &format!("iteration {} thres", it + 1),
        );
        match (row.popped, want_pop) {
            (Some((list, doc, _)), Some((want_list, want_doc))) => {
                assert_eq!(list, want_list, "iteration {} list", it + 1);
                assert_eq!(doc, want_doc, "iteration {} doc", it + 1);
            }
            (None, None) => {}
            (got, want) => panic!("iteration {}: popped {got:?}, paper says {want:?}", it + 1),
        }
    }

    // Result: [⟨6, 0.750⟩, ⟨5, 0.416⟩].
    assert_eq!(outcome.result.docs(), vec![6, 5]);
    assert_close(outcome.result.entries[0].score, 0.750, "S(d6|Q)");
    assert_close(outcome.result.entries[1].score, 0.416, "S(d5|Q)");

    // Intermediate result snapshots. (Note: Figure 6 prints iteration 2's
    // second entry as ⟨3, 0.263⟩ — that is d3's 'the'-frequency, not its
    // score; S(d3|Q) = 0.9808 × 0.263 = 0.258.)
    assert_eq!(trace[0].result.len(), 1);
    assert_close(trace[0].result[0].score, 0.416, "iter 1: S(d5)");
    assert_eq!(trace[1].result.len(), 2);
    assert_close(trace[1].result[1].score, 0.258, "iter 2: S(d3)");

    // Entries read per list: sleeps 1, in 1, the 4, dark 1 (the shaded
    // cut-off entries of Figure 6).
    assert_eq!(outcome.prefix_lens, vec![1, 1, 4, 1]);

    // Documents whose frequencies the VO must certify: pops 5, 3, 6 plus
    // the cut-off front d1 of 'the'.
    assert_eq!(outcome.encountered, vec![5, 3, 6, 1]);
}

#[test]
fn figure11_tnra_trace() {
    let index = toy_index();
    let query = toy_query();
    let lists = IndexLists::new(&index, &query);
    let (outcome, trace) = tnra::run_traced(&lists, &query, 2).unwrap();

    // Figure 11's iteration table.
    let expected: [(f64, Option<(usize, u32)>); 9] = [
        (0.814, Some((2, 5))), // ⟨5, 0.265⟩ for 'the'
        (0.812, Some((2, 3))), // ⟨3, 0.263⟩ for 'the'
        (0.750, Some((2, 6))), // ⟨6, 0.200⟩ for 'the'
        (0.710, Some((0, 6))), // ⟨6, 0.079⟩ for 'sleeps'
        (0.520, Some((3, 6))), // ⟨6, 0.079⟩ for 'dark'
        (0.331, Some((1, 6))), // ⟨6, 0.159⟩ for 'in'
        (0.319, Some((1, 2))), // ⟨2, 0.148⟩ for 'in'
        (0.312, Some((1, 5))), // ⟨5, 0.142⟩ for 'in'
        (0.220, None),         // terminate
    ];
    assert_eq!(trace.len(), expected.len(), "iteration count");
    for (it, (row, &(want_thres, want_pop))) in trace.iter().zip(&expected).enumerate() {
        assert_close(
            row.thres,
            want_thres,
            &format!("iteration {} thres", it + 1),
        );
        match (row.popped, want_pop) {
            (Some((list, doc, _)), Some((want_list, want_doc))) => {
                assert_eq!(list, want_list, "iteration {} list", it + 1);
                assert_eq!(doc, want_doc, "iteration {} doc", it + 1);
            }
            (None, None) => {}
            (got, want) => panic!("iteration {}: popped {got:?}, paper says {want:?}", it + 1),
        }
    }

    // Published (SLB, SUB) bounds at key iterations.
    // Iteration 1: [⟨5, 0.260, 0.813⟩]
    let b = &trace[0].bounds;
    assert_eq!(b[0].0, 5);
    assert_close(b[0].1, 0.260, "iter 1 SLB(d5)");
    assert_close(b[0].2, 0.813, "iter 1 SUB(d5)");

    // Iteration 4: [⟨6, 0.386, 0.750⟩, ⟨5, 0.260, 0.624⟩, ⟨3, 0.258, 0.622⟩]
    let b = &trace[3].bounds;
    assert_eq!(
        b.iter().map(|x| x.0).collect::<Vec<_>>(),
        vec![6, 5, 3],
        "iter 4 order"
    );
    assert_close(b[0].1, 0.386, "iter 4 SLB(d6)");
    assert_close(b[0].2, 0.750, "iter 4 SUB(d6)");
    assert_close(b[1].2, 0.624, "iter 4 SUB(d5)");
    assert_close(b[2].2, 0.622, "iter 4 SUB(d3)");

    // Iteration 7: d2 enters with ⟨2, 0.163, 0.319⟩.
    let b = &trace[6].bounds;
    assert_eq!(b.len(), 4);
    assert_eq!(b[3].0, 2);
    assert_close(b[3].1, 0.163, "iter 7 SLB(d2)");
    assert_close(b[3].2, 0.319, "iter 7 SUB(d2)");

    // Iteration 8: d5 fully resolved at 0.416.
    let b = &trace[7].bounds;
    assert_eq!(b[1].0, 5);
    assert_close(b[1].1, 0.416, "iter 8 SLB(d5)");
    assert_close(b[1].2, 0.416, "iter 8 SUB(d5)");

    // Result: [⟨6, 0.750⟩, ⟨5, 0.416⟩].
    assert_eq!(outcome.result.docs(), vec![6, 5]);
    assert_close(outcome.result.entries[0].score, 0.750, "S(d6|Q)");
    assert_close(outcome.result.entries[1].score, 0.416, "S(d5|Q)");

    // Entries read: sleeps 1, in 4, the 4, dark 1 (shaded in Figure 11).
    assert_eq!(outcome.prefix_lens, vec![1, 4, 4, 1]);
}

#[test]
fn tnra_polls_more_than_tra_on_the_example() {
    // §3.4: TRA finishes in 6 iterations where TNRA needs 9.
    let index = toy_index();
    let table = DocOrderedLists::from_index(&index);
    let query = toy_query();
    let lists = IndexLists::new(&index, &query);
    let freqs = TableFreqs::new(&table, &query);
    let tra_out = tra::run(&lists, &freqs, &query, 2).unwrap();
    let tnra_out = tnra::run(&lists, &query, 2).unwrap();
    assert_eq!(tra_out.iterations, 5); // 5 pops, then the check fires
    assert_eq!(tnra_out.iterations, 8); // 8 pops, then the checks fire
    let tra_read: usize = tra_out.prefix_lens.iter().sum();
    let tnra_read: usize = tnra_out.prefix_lens.iter().sum();
    assert!(tnra_read > tra_read);
}

#[test]
fn figure1_transcription_sanity() {
    // Sanity of the transcription: Figure 1's singleton lists and the
    // head of 'the'.
    let index = toy_index();
    for term in ["and", "dark", "did", "gown", "had", "light", "sleeps"] {
        assert_eq!(index.ft(toy_term_id(term)), 1, "{term}");
    }
    assert_eq!(index.list(toy_term_id("the")).entry(0).doc, 5);
    assert_eq!(index.list(toy_term_id("the")).entry(0).weight, 0.265);
}
