//! Micro-benchmarks of the cryptographic substrate: the per-operation
//! costs from which every VO construction/verification time is composed.

use authsearch_crypto::bignum::{BigUint, Montgomery};
use authsearch_crypto::keys::{cached_keypair, PAPER_KEY_BITS};
use authsearch_crypto::sha256::Sha256;
use authsearch_crypto::{ChainMht, Digest, MerkleTree};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;

fn configure(c: &mut Criterion) -> &mut Criterion {
    c
}

fn hash_functions(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash_functions");
    group
        .sample_size(30)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for size in [64usize, 1024, 65536] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("sha256", size), &data, |b, d| {
            b.iter(|| Sha256::digest(d))
        });
    }
    group.finish();
}

fn merkle_trees(c: &mut Criterion) {
    let mut group = c.benchmark_group("merkle");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for n in [128usize, 2048, 32768] {
        let leaves: Vec<Digest> = (0..n as u32)
            .map(|i| Digest::hash(&i.to_le_bytes()))
            .collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("build", n), &leaves, |b, l| {
            b.iter(|| MerkleTree::from_leaf_digests(l.clone()))
        });
        let tree = MerkleTree::from_leaf_digests(leaves.clone());
        let prefix: Vec<usize> = (0..(n / 10).max(1)).collect();
        group.bench_with_input(BenchmarkId::new("prove_prefix", n), &tree, |b, t| {
            b.iter(|| t.prove(&prefix))
        });
        // Chain-MHT with the paper's ρ' = 125 blocks.
        group.bench_with_input(
            BenchmarkId::new("chain_build_rho125", n),
            &leaves,
            |b, l| b.iter(|| ChainMht::build(l.clone(), 125)),
        );
        let chain = ChainMht::build(leaves.clone(), 125);
        group.bench_with_input(
            BenchmarkId::new("chain_prove_prefix", n),
            &chain,
            |b, ch| b.iter(|| ch.prove_prefix((n / 10).max(1))),
        );
    }
    group.finish();
}

fn rsa(c: &mut Criterion) {
    let mut group = c.benchmark_group("rsa_1024");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    let key = cached_keypair(PAPER_KEY_BITS);
    let msg = b"root digest of an inverted list's chain-MHT";
    group.bench_function("sign_crt", |b| b.iter(|| key.sign(msg).unwrap()));
    let sig = key.sign(msg).unwrap();
    group.bench_function("verify", |b| {
        b.iter(|| key.public_key().verify(msg, &sig).unwrap())
    });
    group.finish();
}

/// Montgomery-form windowed exponentiation against the schoolbook
/// (Algorithm-D-per-step) implementation it replaced on the hot path.
fn modpow(c: &mut Criterion) {
    let mut group = c.benchmark_group("modpow");
    group
        .sample_size(15)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for bits in [512usize, 1024, 2048] {
        let kb = bits / 8;
        let mut m_bytes = vec![0xb7u8; kb];
        m_bytes[kb - 1] |= 1; // odd modulus, full width
        let modulus = BigUint::from_bytes_be(&m_bytes);
        let base = BigUint::from_bytes_be(&vec![0x5a; kb - 1]);
        let exp = BigUint::from_bytes_be(&vec![0x9c; kb]);
        let ctx = Montgomery::new(&modulus).expect("odd modulus");
        group.bench_with_input(BenchmarkId::new("montgomery", bits), &bits, |b, _| {
            b.iter(|| ctx.pow(&base, &exp))
        });
        group.bench_with_input(
            BenchmarkId::new("montgomery_cold_ctx", bits),
            &bits,
            |b, _| b.iter(|| base.mod_pow(&exp, &modulus)),
        );
        group.bench_with_input(BenchmarkId::new("schoolbook", bits), &bits, |b, _| {
            b.iter(|| base.mod_pow_schoolbook(&exp, &modulus))
        });
    }
    group.finish();
}

fn all(c: &mut Criterion) {
    let c = configure(c);
    hash_functions(c);
    merkle_trees(c);
    modpow(c);
    rsa(c);
}

criterion_group!(benches, all);
criterion_main!(benches);
