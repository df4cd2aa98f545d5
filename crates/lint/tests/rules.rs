//! Rule-engine behavior: each rule fires on seeded violations with
//! exact file:line:col blame, stays quiet on the idiomatic fixes, and
//! honors (only) well-formed suppressions.

use authlint::{analyze_source, analyze_sources, Config, Finding};

const UNTRUSTED: &str = "crates/core/src/wire.rs";
const TRUSTED: &str = "crates/core/src/other.rs";

fn run(path: &str, source: &str) -> Vec<Finding> {
    analyze_source(path, source, &Config::default())
        .expect("fixture must lex")
        .findings
}

fn rules_of(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule).collect()
}

/// Findings over a tree of `(path, source)` files, read together.
fn run_tree(files: &[(&str, &str)]) -> Vec<Finding> {
    analyze_sources(files, &Config::default()).findings
}

#[test]
fn panic_path_fires_only_in_untrusted_modules() {
    let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    assert_eq!(rules_of(&run(UNTRUSTED, src)), ["panic-path"]);
    assert!(run(TRUSTED, src).is_empty());
}

#[test]
fn panic_path_catches_macros_and_indexing() {
    let src =
        "fn f(v: &[u8], i: usize) -> u8 {\n    if i > v.len() { panic!(\"oob\") }\n    v[i]\n}\n";
    let found = run(UNTRUSTED, src);
    assert_eq!(rules_of(&found), ["panic-path", "panic-path"]);
    assert_eq!((found[0].line, found[0].col), (2, 22), "panic! blame");
    assert_eq!(
        (found[1].line, found[1].col),
        (3, 6),
        "indexing blames the bracket"
    );
}

#[test]
fn panic_path_ignores_non_index_brackets() {
    // Attributes, array types, array literals, vec!, and patterns all
    // use brackets without indexing.
    let src = "#[derive(Debug)]\nstruct S([u8; 4]);\nfn f() -> Vec<u8> { let _a = [0u8; 2]; vec![1, 2] }\n";
    assert!(run(UNTRUSTED, src).is_empty());
}

#[test]
fn test_gated_code_is_exempt() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
    assert!(run(UNTRUSTED, src).is_empty());
    // #[cfg(not(test))] ships — NOT exempt.
    let src = "#[cfg(not(test))]\nfn f(x: Option<u8>) { x.unwrap(); }\n";
    assert_eq!(rules_of(&run(UNTRUSTED, src)), ["panic-path"]);
}

#[test]
fn truncating_cast_applies_everywhere_with_length_sources() {
    let src = "fn f(v: &[u8]) -> u16 { v.len() as u16 }\n";
    assert_eq!(rules_of(&run(TRUSTED, src)), ["truncating-cast"]);
    // Widening or same-width to u64/usize is fine.
    assert!(run(TRUSTED, "fn f(v: &[u8]) -> u64 { v.len() as u64 }\n").is_empty());
    // Non-length identifiers are not second-guessed.
    assert!(run(TRUSTED, "fn f(mechanism: u64) -> u8 { mechanism as u8 }\n").is_empty());
    // Field chains count: self.total_count as u16.
    let src = "impl S { fn f(&self) -> u16 { self.entry_count as u16 } }\n";
    assert_eq!(rules_of(&run(TRUSTED, src)), ["truncating-cast"]);
}

#[test]
fn lock_unwrap_fires_everywhere_and_recovery_idiom_passes() {
    let src = "fn f(m: &std::sync::Mutex<u8>) -> u8 { *m.lock().unwrap() }\n";
    assert_eq!(rules_of(&run(TRUSTED, src)), ["lock-unwrap"]);
    let src = "fn f(m: &std::sync::Mutex<u8>) -> u8 { *m.lock().expect(\"poisoned\") }\n";
    assert_eq!(rules_of(&run(TRUSTED, src)), ["lock-unwrap"]);
    let src =
        "fn f(m: &std::sync::Mutex<u8>) -> u8 { *m.lock().unwrap_or_else(std::sync::PoisonError::into_inner) }\n";
    assert!(run(TRUSTED, src).is_empty());
}

#[test]
fn unclamped_prealloc_in_decode_modules() {
    let bad = "fn d(n: usize) -> Vec<u8> { Vec::with_capacity(n) }\n";
    assert_eq!(rules_of(&run(UNTRUSTED, bad)), ["unclamped-prealloc"]);
    // Outside decode modules the rule does not apply.
    assert!(run(TRUSTED, bad).is_empty());
    // Routed through the helpers: fine.
    for ok in [
        "fn d(r: &R, raw: usize) -> Vec<u8> { let n = r.checked_count(raw, 4, \"x\")?; Vec::with_capacity(n) }\n",
        "fn d(n: usize) -> Vec<u8> { Vec::with_capacity(n.min(PREALLOC_CLAMP)) }\n",
        "fn d(n: usize) -> Vec<u8> { Vec::with_capacity(capped(n)) }\n",
        "fn d(buf: &[u8]) -> Vec<u8> { Vec::with_capacity(buf.len()) }\n",
        "fn d() -> Vec<u8> { Vec::with_capacity(16) }\n",
        "fn d() -> Vec<u8> { Vec::with_capacity(MAX_SECTIONS) }\n",
    ] {
        assert!(run(UNTRUSTED, ok).is_empty(), "should pass: {ok}");
    }
}

#[test]
fn unclamped_prealloc_traces_local_bindings() {
    // A single-identifier argument is traced to its `let` binding.
    let ok = "fn d(r: &R) -> Vec<u8> {\n    let n = r.checked_count(r.u32()? as usize, 4, \"x\")?;\n    Vec::with_capacity(n)\n}\n";
    assert!(run(UNTRUSTED, ok).is_empty());
    let bad =
        "fn d(r: &R) -> Vec<u8> {\n    let n = r.u32()? as usize;\n    Vec::with_capacity(n)\n}\n";
    assert_eq!(rules_of(&run(UNTRUSTED, bad)), ["unclamped-prealloc"]);
}

#[test]
fn suppressions_silence_with_reason_only() {
    // Trailing allow with a reason: silenced.
    let src = "fn f(x: Option<u8>) { x.unwrap(); } // lint:allow(panic-path): input is a compile-time constant\n";
    assert!(run(UNTRUSTED, src).is_empty());
    // Standalone allow above the line: silenced.
    let src = "// lint:allow(panic-path): provably present\nfn f(x: Option<u8>) { x.unwrap(); }\n";
    assert!(run(UNTRUSTED, src).is_empty());
    // Missing reason: finding stays AND the allow is reported.
    let src = "fn f(x: Option<u8>) { x.unwrap(); } // lint:allow(panic-path)\n";
    let found = run(UNTRUSTED, src);
    let mut rules = rules_of(&found);
    rules.sort();
    assert_eq!(rules, ["bad-suppression", "panic-path"]);
    // Unknown rule name: rejected.
    let src = "fn f(x: Option<u8>) { x.unwrap(); } // lint:allow(no-such-rule): because\n";
    let found = run(UNTRUSTED, src);
    let mut rules = rules_of(&found);
    rules.sort();
    assert_eq!(rules, ["bad-suppression", "panic-path"]);
    // An allow matching nothing is itself a finding.
    let src = "// lint:allow(panic-path): stale\nfn f() -> u8 { 1 }\n";
    assert_eq!(rules_of(&run(UNTRUSTED, src)), ["bad-suppression"]);
}

#[test]
fn blame_output_is_exact_file_line_col_rule() {
    // The fixture the acceptance criterion cares about: seeded
    // violations must be blamed at their exact source position, and the
    // rendered form must carry file, line, col, and rule name.
    let src = "\
fn decode(v: &[u8], n: usize) -> u16 {
    let x = v[0];
    let y = v.len() as u16;
    y
}
";
    let found = run(UNTRUSTED, src);
    let rendered: Vec<String> = found.iter().map(|f| f.to_string()).collect();
    assert_eq!(
        rendered,
        [
            "crates/core/src/wire.rs:2:14: [panic-path] slice indexing in untrusted-input module — use .get(…) and return a typed error",
            "crates/core/src/wire.rs:3:21: [truncating-cast] `len as u16` narrows a length/count-typed value — use u16::try_from and surface a typed error",
        ]
    );
}

const REACTOR: &str = "crates/core/src/server/reactor_core.rs";
const UNSAFE_OK: &str = "crates/core/src/reactor.rs";

#[test]
fn unsafe_audit_requires_safety_comment_and_module_allowlist() {
    let src = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
    // Outside the allowlist: both the placement and the missing
    // SAFETY comment are findings.
    let found = run(TRUSTED, src);
    assert_eq!(rules_of(&found), ["unsafe-audit", "unsafe-audit"]);
    assert!(found
        .iter()
        .any(|f| f.message.contains("outside the unsafe-allowed module list")));
    assert!(found.iter().any(|f| f.message.contains("SAFETY")));
    // Inside an allowlisted module: only the missing comment remains.
    let found = run(UNSAFE_OK, src);
    assert_eq!(rules_of(&found), ["unsafe-audit"]);
    // A SAFETY comment on the adjacent line satisfies the audit.
    let ok = "// SAFETY: the caller guarantees p is valid for reads\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n";
    assert!(run(UNSAFE_OK, ok).is_empty());
}

#[test]
fn unsafe_audit_allows_only_the_sha_kernel_in_the_crypto_crate() {
    let src = "// SAFETY: the caller guarantees p is valid for reads\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n";
    assert!(run("crates/crypto/src/sha256/shani.rs", src).is_empty());
    for other in [
        "crates/crypto/src/sha256.rs",
        "crates/crypto/src/digest.rs",
        "crates/crypto/src/merkle.rs",
        "crates/crypto/src/bignum/montgomery.rs",
        "crates/crypto/src/sha256/other.rs",
    ] {
        let found = run(other, src);
        assert_eq!(rules_of(&found), ["unsafe-audit"], "{other}");
        assert!(
            found[0]
                .message
                .contains("outside the unsafe-allowed module list"),
            "{other}"
        );
    }
}

#[test]
fn unsafe_audit_allows_nothing_in_the_bench_crate() {
    let src = "// SAFETY: the caller guarantees p is valid for reads\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n";
    let found = run("crates/bench/src/bin/fig13.rs", src);
    assert_eq!(rules_of(&found), ["unsafe-audit"]);
    assert!(found[0]
        .message
        .contains("outside the unsafe-allowed module list"));
    let allowed = Config::default().unsafe_allowed;
    assert!(
        allowed.iter().all(|m| !m.starts_with("crates/bench/")),
        "{allowed:?}"
    );
}

#[test]
fn unsafe_audit_allows_nothing_in_the_pool() {
    // The executor is safe code on `std::thread::scope` and `mpsc`, so
    // `unsafe` reintroduced there — even with a SAFETY comment — is a
    // finding.
    let src = "// SAFETY: the caller guarantees p is valid for reads\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n";
    let found = run("crates/core/src/pool.rs", src);
    assert_eq!(rules_of(&found), ["unsafe-audit"]);
    assert!(found[0]
        .message
        .contains("outside the unsafe-allowed module list"));
    assert_eq!(
        Config::default().unsafe_allowed,
        [
            "crates/core/src/reactor.rs",
            "crates/crypto/src/sha256/shani.rs"
        ]
    );
}

#[test]
fn unsafe_audit_distinguishes_unsafe_fn_from_unsafe_block() {
    let src = "\
unsafe fn raw(p: *const u8) -> u8 {
    *p
}
fn wrap(p: *const u8) -> u8 {
    unsafe { raw(p) }
}
";
    let found = run(UNSAFE_OK, src);
    assert_eq!(rules_of(&found), ["unsafe-audit", "unsafe-audit"]);
    assert!(
        found[0].message.starts_with("unsafe fn"),
        "{}",
        found[0].message
    );
    assert_eq!((found[0].line, found[0].col), (1, 1));
    assert!(
        found[1].message.starts_with("unsafe block"),
        "{}",
        found[1].message
    );
    assert_eq!((found[1].line, found[1].col), (5, 5));
}

#[test]
fn unsafe_audit_ffi_returns_must_be_bound_and_checked() {
    // Discarded outright.
    let src = "\
extern \"C\" {
    fn close(fd: i32) -> i32;
}
fn f(fd: i32) {
    // SAFETY: fd is owned by this wrapper and closed exactly once.
    unsafe { close(fd) };
}
";
    let found = run(UNSAFE_OK, src);
    assert_eq!(rules_of(&found), ["unsafe-audit"]);
    assert!(
        found[0].message.contains("discards its return value"),
        "{}",
        found[0].message
    );
    // Bound but never consulted.
    let src = "\
extern \"C\" {
    fn close(fd: i32) -> i32;
}
fn f(fd: i32) {
    // SAFETY: fd is owned by this wrapper and closed exactly once.
    let rc = unsafe { close(fd) };
}
";
    let found = run(UNSAFE_OK, src);
    assert_eq!(rules_of(&found), ["unsafe-audit"]);
    assert!(
        found[0].message.contains("binds `rc` but never checks it"),
        "{}",
        found[0].message
    );
    // Bound and errno-checked: clean.
    let src = "\
extern \"C\" {
    fn close(fd: i32) -> i32;
}
fn f(fd: i32) -> std::io::Result<()> {
    // SAFETY: fd is owned by this wrapper and closed exactly once.
    let rc = unsafe { close(fd) };
    if rc < 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(())
}
";
    assert!(run(UNSAFE_OK, src).is_empty());
}

#[test]
fn lock_order_cycle_fixture_names_both_locks() {
    let src = "\
impl S {
    fn one(&self) {
        let ga = lock_recover(&self.alpha);
        let gb = lock_recover(&self.beta);
        use_both(&ga, &gb);
    }
    fn two(&self) {
        let gb = lock_recover(&self.beta);
        let ga = lock_recover(&self.alpha);
        use_both(&ga, &gb);
    }
}
";
    let found = run(TRUSTED, src);
    assert_eq!(rules_of(&found), ["lock-order", "lock-order"]);
    for f in &found {
        assert!(
            f.message.contains("`alpha`") && f.message.contains("`beta`"),
            "cycle finding must name both locks: {}",
            f.message
        );
    }
    assert_eq!(
        found[0].line, 4,
        "blamed at the acquisition closing the cycle"
    );
    assert_eq!(found[1].line, 9);
    // Consistent order everywhere: no cycle, no findings.
    let src = "\
impl S {
    fn one(&self) {
        let ga = lock_recover(&self.alpha);
        let gb = lock_recover(&self.beta);
        use_both(&ga, &gb);
    }
    fn two(&self) {
        let ga = lock_recover(&self.alpha);
        let gb = lock_recover(&self.beta);
        use_both(&ga, &gb);
    }
}
";
    assert!(run(TRUSTED, src).is_empty());
}

#[test]
fn lock_order_flags_self_deadlock() {
    let src = "\
impl S {
    fn f(&self) {
        let a = lock_recover(&self.inner);
        let b = lock_recover(&self.inner);
        use_both(&a, &b);
    }
}
";
    let found = run(TRUSTED, src);
    assert_eq!(rules_of(&found), ["lock-order"]);
    assert!(
        found[0].message.contains("self-deadlock"),
        "{}",
        found[0].message
    );
}

#[test]
fn blocking_in_reactor_flags_direct_ops_only_in_reactor_modules() {
    let sleep = "\
fn tick(d: std::time::Duration) {
    std::thread::sleep(d);
}
";
    let found = run(REACTOR, sleep);
    assert_eq!(rules_of(&found), ["blocking-in-reactor"]);
    assert_eq!((found[0].line, found[0].col), (2, 18));
    // The same code outside the reactor modules is not the rule's business.
    assert!(run(TRUSTED, sleep).is_empty());
    // Bare .join() on a handle blocks; .join(", ") on a slice does not.
    let src = "fn f(h: std::thread::JoinHandle<()>) { h.join(); }\n";
    assert_eq!(rules_of(&run(REACTOR, src)), ["blocking-in-reactor"]);
    let src = "fn f(v: &[String]) -> String { v.join(\", \") }\n";
    assert!(run(REACTOR, src).is_empty());
    // Blocking stream I/O.
    let src = "fn f(s: &mut std::net::TcpStream, b: &mut [u8]) { s.read_exact(b); }\n";
    let found = run(REACTOR, src);
    assert_eq!(rules_of(&found), ["blocking-in-reactor"]);
    assert!(
        found[0].message.contains("read_exact"),
        "{}",
        found[0].message
    );
}

#[test]
fn blocking_in_reactor_sees_one_call_level_deep() {
    let src = "\
fn backoff() {
    std::thread::sleep(std::time::Duration::from_millis(1));
}
fn on_readable() {
    backoff();
}
";
    let found = run(REACTOR, src);
    assert_eq!(
        rules_of(&found),
        ["blocking-in-reactor", "blocking-in-reactor"]
    );
    // The direct op and the caller are both blamed.
    assert!(
        found[1].message.contains("calls `backoff`"),
        "{}",
        found[1].message
    );
    assert_eq!((found[1].line, found[1].col), (5, 5));
}

#[test]
fn blocking_in_reactor_flags_submit_under_guard() {
    let src = "\
impl Core {
    fn dispatch(&self, job: Job) {
        let guard = lock_recover(&self.conns);
        self.pool.submit(job);
        drop(guard);
    }
}
";
    let found = run(REACTOR, src);
    assert_eq!(rules_of(&found), ["blocking-in-reactor"]);
    assert!(
        found[0].message.contains("submit while holding `conns`"),
        "{}",
        found[0].message
    );
    // Guard released first: fine.
    let src = "\
impl Core {
    fn dispatch(&self, job: Job) {
        let guard = lock_recover(&self.conns);
        drop(guard);
        self.pool.submit(job);
    }
}
";
    assert!(run(REACTOR, src).is_empty());
}

#[test]
fn swallowed_result_fires_on_calls_in_io_modules_only() {
    let src = "\
fn f(s: &mut W) {
    let _ = s.flush();
}
";
    let found = run(UNTRUSTED, src);
    assert_eq!(rules_of(&found), ["swallowed-result"]);
    assert_eq!((found[0].line, found[0].col), (2, 5), "blamed at the let");
    // Not an IO module: not the rule's business.
    assert!(run(TRUSTED, src).is_empty());
    // `let _ = x;` with no call is a silenced-variable idiom, not a
    // dropped result.
    assert!(run(UNTRUSTED, "fn f(x: u8) { let _ = x; }\n").is_empty());
    // An allow with a reason silences it.
    let src = "fn f(s: &mut W) { let _ = s.flush(); } // lint:allow(swallowed-result): best-effort flush on teardown\n";
    assert!(run(UNTRUSTED, src).is_empty());
}

#[test]
fn stale_allows_for_new_rules_are_bad_suppressions() {
    for rule in [
        "unsafe-audit",
        "lock-order",
        "blocking-in-reactor",
        "swallowed-result",
        "unused-pub",
    ] {
        let src = format!("// lint:allow({rule}): stale reason\nfn f() -> u8 {{ 1 }}\n");
        let found = run(UNTRUSTED, &src);
        assert_eq!(rules_of(&found), ["bad-suppression"], "stale allow({rule})");
    }
}

#[test]
fn every_rule_seeds_nonzero_in_its_module() {
    // One seeded violation per rule, each blamed under its own name —
    // the end-to-end guarantee that the CI gate can never pass with a
    // reintroduced bug of any class.
    let cases = [
        (UNTRUSTED, "fn f(x: Option<u8>) { x.unwrap(); }\n", "panic-path"),
        (
            UNTRUSTED,
            "fn f(v: &[u8]) -> u32 { v.len() as u32 }\n",
            "truncating-cast",
        ),
        (
            UNTRUSTED,
            "fn f(m: &std::sync::Mutex<u8>) { m.lock().unwrap(); }\n",
            "lock-unwrap",
        ),
        (
            UNTRUSTED,
            "fn f(n: usize) -> Vec<u8> { Vec::with_capacity(n) }\n",
            "unclamped-prealloc",
        ),
        (
            TRUSTED,
            "fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
            "unsafe-audit",
        ),
        (
            TRUSTED,
            "fn a(s: &S) { let x = lock_recover(&s.one); let y = lock_recover(&s.two); use2(&x, &y); }\nfn b(s: &S) { let y = lock_recover(&s.two); let x = lock_recover(&s.one); use2(&x, &y); }\n",
            "lock-order",
        ),
        (
            REACTOR,
            "fn f(d: std::time::Duration) { std::thread::sleep(d); }\n",
            "blocking-in-reactor",
        ),
        (
            UNTRUSTED,
            "fn f(s: &mut W) { let _ = s.flush(); }\n",
            "swallowed-result",
        ),
        (TRUSTED, "pub fn lonely() {}\n", "unused-pub"),
    ];
    for (path, src, rule) in cases {
        let found = run(path, src);
        assert!(
            found.iter().any(|f| f.rule == rule),
            "{rule} should fire on: {src}"
        );
    }
}

const LIB: &str = "crates/core/src/lonely.rs";

#[test]
fn unused_pub_flags_items_named_only_inside_their_library() {
    // Named only in its own file.
    let src = "pub fn lonely() {}\nfn caller() { lonely(); }\n";
    let found = run_tree(&[(LIB, src)]);
    let rendered: Vec<String> = found.iter().map(|f| f.to_string()).collect();
    assert_eq!(
        rendered,
        ["crates/core/src/lonely.rs:1:8: [unused-pub] `pub` item `lonely` is named nowhere outside crates/core/src/ — make it pub(crate) or private, or delete it"]
    );
    // Named in another file of the same library, or its unit tests.
    let sibling = "fn f() { crate::lonely::lonely(); }\n#[cfg(test)]\nmod tests {\n    fn t() { super::lonely(); }\n}\n";
    let found = run_tree(&[(LIB, src), ("crates/core/src/other.rs", sibling)]);
    assert_eq!(rules_of(&found), ["unused-pub"]);
    // Named outside only in a doc comment or a string: neither is a caller.
    let prose = "/// Calls [`lonely`].\n#[test]\nfn t() { let _name = \"lonely\"; }\n";
    let found = run_tree(&[(LIB, src), ("tests/prose.rs", prose)]);
    assert_eq!(rules_of(&found), ["unused-pub"]);
    // Every item kind, with qualifiers, and each leaf of a `pub use` list.
    let items = "pub const fn a() {}\npub unsafe extern \"C\" fn b() {}\npub struct C;\npub enum D {}\npub trait E {}\npub const F: u8 = 0;\npub static mut G: u8 = 0;\npub type H = u8;\npub mod i {}\npub use x::{J, k::L as M, n::*, o::{self}, P as _};\n";
    let names: Vec<String> = run_tree(&[(LIB, items)])
        .iter()
        .filter(|f| f.rule == "unused-pub")
        .map(|f| f.message.split('`').nth(3).unwrap_or_default().to_string())
        .collect();
    assert_eq!(
        names,
        ["a", "b", "C", "D", "E", "F", "G", "H", "i", "J", "M"]
    );
    // Restricted visibility, fields and test-gated items are not flagged.
    let quiet =
        "pub(crate) fn a() {}\npub(super) struct B { pub c: u8 }\n#[cfg(test)]\npub fn d() {}\n";
    assert!(run_tree(&[(LIB, quiet)]).is_empty());
}

#[test]
fn unused_pub_is_silent_when_an_outside_file_names_the_item() {
    let src = "pub fn lonely() {}\n";
    for caller in [
        "tests/it.rs",
        "crates/core/tests/it.rs",
        "examples/demo.rs",
        "crates/core/src/main.rs",
        "crates/core/src/bin/tool.rs",
        "crates/index/src/lib.rs",
        "src/lib.rs",
        "benchmark/src/drive.rs",
    ] {
        let found = run_tree(&[(LIB, src), (caller, "fn f() { lonely(); }\n")]);
        assert!(found.is_empty(), "{caller} names it: {found:?}");
    }
    // Bins, tests, examples and the benchmark are read for callers only:
    // their own `pub` items are never flagged.
    for path in [
        "crates/lint/src/main.rs",
        "examples/demo.rs",
        "benchmark/src/lib.rs",
    ] {
        assert!(run_tree(&[(path, src)]).is_empty(), "{path}");
    }
    // One leaf of a `pub use` list named outside, the other not.
    let found = run_tree(&[
        ("crates/core/src/lib.rs", "pub use a::{Named, Unnamed};\n"),
        ("tests/it.rs", "use authsearch_core::Named;\n"),
    ]);
    assert_eq!(found.len(), 1);
    assert!(found[0].message.contains("`Unnamed`"), "{}", found[0]);
}

#[test]
fn unused_pub_honors_only_a_reasoned_allow_that_suppresses_a_finding() {
    let allowed = "// lint:allow(unused-pub): reached only as the value of `make`\npub struct Inferred;\npub fn make() -> Inferred { Inferred }\n";
    let caller = ("tests/it.rs", "fn f() { let _v = make(); }\n");
    assert!(run_tree(&[(LIB, allowed), caller]).is_empty());
    // Without a reason the finding stays and the allow is reported.
    let bare = "pub struct Inferred; // lint:allow(unused-pub)\n";
    let found = run_tree(&[(LIB, bare)]);
    let mut rules = rules_of(&found);
    rules.sort();
    assert_eq!(rules, ["bad-suppression", "unused-pub"]);
    // An allow on an item an outside file names suppresses nothing.
    let stale = "// lint:allow(unused-pub): no longer needed\npub fn make() {}\n";
    let found = run_tree(&[(LIB, stale), caller]);
    assert_eq!(rules_of(&found), ["bad-suppression"]);
    assert_eq!(found[0].line, 1);
}
