//! Micro-benchmarks of the GAR machinery: region set operations,
//! predicate simplification and loop expansion — the per-operation costs
//! that make Fig. 4's totals plausible.

use criterion::{criterion_group, criterion_main, Criterion};
use gar::{expand_gar, Gar, GarList, LoopCtx};
use pred::Pred;
use rand::{rngs::StdRng, Rng, SeedableRng};
use region::{Range, Region};
use std::hint::black_box;
use sym::Expr;

fn random_region(rng: &mut StdRng) -> Region {
    let lo: i64 = rng.random_range(-20..20);
    let len: i64 = rng.random_range(0..40);
    let symbolic = rng.random_bool(0.4);
    if symbolic {
        Region::from_ranges([Range::contiguous(
            Expr::var("a").try_add(&Expr::from(lo)).unwrap(),
            Expr::var("a").try_add(&Expr::from(lo + len)).unwrap(),
        )])
    } else {
        Region::from_ranges([Range::contiguous(Expr::from(lo), Expr::from(lo + len))])
    }
}

fn random_guard(rng: &mut StdRng) -> Pred {
    match rng.random_range(0..3) {
        0 => Pred::tru(),
        1 => Pred::le(Expr::var("a"), Expr::from(rng.random_range(-5i64..20))),
        _ => Pred::le(Expr::from(rng.random_range(-5i64..20)), Expr::var("a")),
    }
}

fn bench_gar_ops(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let lists: Vec<GarList> = (0..64)
        .map(|_| {
            GarList::from_gars(
                (0..3).map(|_| Gar::new(random_guard(&mut rng), random_region(&mut rng))),
            )
        })
        .collect();

    let mut g = c.benchmark_group("gar_ops");
    g.bench_function("union", |b| {
        let mut k = 0usize;
        b.iter(|| {
            let r = lists[k % 64].union(&lists[(k + 17) % 64]);
            k += 1;
            black_box(r)
        })
    });
    g.bench_function("intersect", |b| {
        let mut k = 0usize;
        b.iter(|| {
            let r = lists[k % 64].intersect(&lists[(k + 31) % 64]);
            k += 1;
            black_box(r)
        })
    });
    g.bench_function("subtract", |b| {
        let mut k = 0usize;
        b.iter(|| {
            let r = lists[k % 64].subtract(&lists[(k + 13) % 64]);
            k += 1;
            black_box(r)
        })
    });
    g.finish();
}

fn bench_pred_ops(c: &mut Criterion) {
    let p = Pred::le(Expr::from(1), Expr::var("i"))
        .and(&Pred::le(Expr::var("i"), Expr::var("n")))
        .and(&Pred::le(Expr::var("n"), Expr::from(100)));
    let q = Pred::le(Expr::var("i"), Expr::from(102));
    let mut g = c.benchmark_group("pred_ops");
    g.bench_function("and_simplify", |b| {
        b.iter(|| black_box(p.and(black_box(&q))))
    });
    g.bench_function("implies_transitive", |b| {
        b.iter(|| black_box(p.implies(black_box(&q))))
    });
    g.bench_function("not_cnf", |b| b.iter(|| black_box(p.not())));
    g.finish();
}

fn bench_expansion(c: &mut Criterion) {
    // The §4.1 example: [c <= i+1 <= d, (1:i)] expanded over a <= i <= b.
    let i1 = Expr::var("i").try_add(&Expr::one()).unwrap();
    let guard = Pred::le(Expr::var("c"), i1.clone()).and(&Pred::le(i1, Expr::var("d")));
    let gar = Gar::new(
        guard,
        Region::from_ranges([Range::contiguous(Expr::from(1), Expr::var("i"))]),
    );
    let ctx = LoopCtx::new("i", Expr::var("a"), Expr::var("b"));
    c.bench_function("expansion_paper_example", |b| {
        b.iter(|| black_box(expand_gar(black_box(&gar), black_box(&ctx))))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(50);
    targets = bench_gar_ops, bench_pred_ops, bench_expansion
}
criterion_main!(benches);
