//! Substrate kernel benches: SpMV variants (serial, rayon, distributed),
//! sparse-format conversions, assembly and the direct solver's ordering —
//! the building blocks whose costs bound the interface overhead the paper
//! measures.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rcomm::Universe;
use rsparse::{
    generate, BcsrMatrix, BlockRowPartition, DistCsrMatrix, DistVector, MsrMatrix, SellMatrix,
};

fn spmv(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmv");
    for m in [50usize, 100, 200] {
        let a = generate::laplacian_2d(m);
        let x = generate::random_vector(a.cols(), 7);
        group.throughput(Throughput::Elements(a.nnz() as u64));
        group.bench_with_input(BenchmarkId::new("serial", m), &m, |b, _| {
            let mut y = vec![0.0; a.rows()];
            b.iter(|| a.matvec_into(&x, &mut y));
        });
        group.bench_with_input(BenchmarkId::new("threaded", m), &m, |b, _| {
            // Allocation-free threaded SpMV at the host's parallelism
            // (restored afterwards so later benches stay serial).
            let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
            let prev = rsparse::threads::active();
            rsparse::threads::set_threads(cores);
            let mut y = vec![0.0; a.rows()];
            b.iter(|| a.matvec_par_into(&x, &mut y));
            rsparse::threads::set_threads(prev);
        });
        group.bench_with_input(BenchmarkId::new("dist4", m), &m, |b, _| {
            b.iter(|| {
                Universe::run(4, |comm| {
                    let part = BlockRowPartition::even(a.rows(), comm.size());
                    let da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
                    let dx = DistVector::from_global(part, comm.rank(), &x).unwrap();
                    // Time several matvecs so the distribution cost
                    // amortizes like a solver's would.
                    let mut dy = da.matvec(comm, &dx).unwrap();
                    for _ in 0..9 {
                        da.matvec_into(comm, &dx, &mut dy).unwrap();
                    }
                    dy.local()[0]
                })
            });
        });
    }
    group.finish();
}

/// Serial SpMV across the adaptive storage formats on format-friendly
/// patterns: SELL-C-σ on the 5-point stencil (uniform rows), block-CSR
/// on a FEM-style 3-dof assembly (full tiles), with the CSR kernel on
/// the same matrix as the baseline in each case. All three are
/// bit-identical; only the time may differ.
fn spmv_formats(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmv_formats");
    let stencil = generate::laplacian_2d(200);
    let fem = generate::fem_block(80, 3, 2);
    for (label, a) in [("stencil200", &stencil), ("femb3", &fem)] {
        let x = generate::random_vector(a.cols(), 7);
        group.throughput(Throughput::Elements(a.nnz() as u64));
        group.bench_function(BenchmarkId::new("csr", label), |b| {
            let mut y = vec![0.0; a.rows()];
            b.iter(|| a.matvec_into(&x, &mut y));
        });
        group.bench_function(BenchmarkId::new("sell", label), |b| {
            let s = SellMatrix::from_csr(a);
            let mut y = vec![0.0; a.rows()];
            b.iter(|| s.matvec_into(&x, &mut y));
        });
        group.bench_function(BenchmarkId::new("bcsr", label), |b| {
            let m = BcsrMatrix::from_csr(a);
            let mut y = vec![0.0; a.rows()];
            b.iter(|| m.matvec_into(&x, &mut y));
        });
    }
    group.finish();
}

fn conversions(c: &mut Criterion) {
    let mut group = c.benchmark_group("convert");
    let a = generate::laplacian_2d(100);
    group.throughput(Throughput::Elements(a.nnz() as u64));
    group.bench_function("csr_to_coo", |b| b.iter(|| a.to_coo()));
    let coo = a.to_coo();
    group.bench_function("coo_to_csr", |b| b.iter(|| coo.to_csr()));
    group.bench_function("csr_to_csc", |b| b.iter(|| a.to_csc()));
    group.bench_function("csr_to_msr", |b| b.iter(|| MsrMatrix::from_csr(&a).unwrap()));
    group.bench_function("csr_transpose", |b| b.iter(|| a.transpose()));
    group.finish();
}

fn assembly(c: &mut Criterion) {
    let mut group = c.benchmark_group("assembly");
    for m in [100usize, 200] {
        group.bench_with_input(BenchmarkId::new("paper_problem", m), &m, |b, &m| {
            let p = rmesh::paper_problem(m);
            b.iter(|| p.assemble_global());
        });
    }
    group.finish();
}

/// RSLU's fill-reducing minimum-degree ordering on the paper's system —
/// the bulk of a cold direct solve's analyze phase.
fn ordering(c: &mut Criterion) {
    let mut group = c.benchmark_group("ordering");
    for m in [50usize, 100] {
        let (a, _) = rmesh::paper_problem(m).assemble_global();
        group.bench_with_input(BenchmarkId::new("min_degree", m), &m, |b, _| {
            b.iter(|| rdirect::Ordering::MinDegree.compute(&a));
        });
    }
    group.finish();
}

criterion_group!(benches, spmv, spmv_formats, conversions, assembly, ordering);
criterion_main!(benches);
