// Fig. 8 -- Average iteration time (a), launched-kernel count (b) and memory
// usage (c) under step-by-step system optimization, at batch sizes 16/32/64
// on a single device.
//
// Stages match the paper's walk:
//   0  reference CHGNet
//   1  + parallel computation of basis        (paper: 2.06-2.52x speedup)
//   2  + kernel fusion & redundancy bypass    (paper: 1.08-1.18x, mem /1.05-1.07)
//   3  + force/stress decoupling              (paper: 1.88-2x,   mem /3.38-3.50)
// Total: 4.43-5.62x time, 12.72-20.16x kernels, 3.59x memory.
#include "bench_common.hpp"

#include "autograd/ops.hpp"
#include "perf/counters.hpp"
#include "perf/timer.hpp"
#include "train/loss.hpp"

namespace fastchg::bench {
namespace {

struct Measurement {
  double seconds = 0.0;
  std::uint64_t kernels = 0;
  std::uint64_t peak_bytes = 0;
};

Measurement measure_iteration(model::CHGNet& net, const data::Batch& b,
                              int reps) {
  Measurement m;
  for (int r = 0; r < reps; ++r) {
    net.zero_grad();
    reset_counters();
    perf::Timer t;
    model::ModelOutput out = net.forward(b, model::ForwardMode::kTrain);
    train::LossResult loss = train::chgnet_loss(out, b);
    ag::backward(loss.total);
    m.seconds += t.seconds();
    m.kernels = perf::counters().kernel_launches;
    m.peak_bytes = std::max(m.peak_bytes, perf::counters().bytes_peak);
  }
  m.seconds /= reps;
  return m;
}

const char* kStageNames[4] = {
    "reference CHGNet", "+ parallel basis (Alg.2)",
    "+ fusion & redundancy bypass", "+ F/S decoupling"};

int run(int argc, char** argv) {
  BenchOptions opt = parse_options(argc, argv);
  BenchRecorder rec("fig8_iteration", argc, argv);
  print_header("Fig. 8", "iteration time / kernel count / memory, "
                         "step-by-step optimization");
  const int reps = opt.full ? 3 : 2;
  const std::vector<index_t> batches = {16, 32, 64};
  data::Dataset ds = bench_dataset(64, 88, opt);

  // One model per stage (identical architecture dims; switches differ).
  std::vector<std::unique_ptr<model::CHGNet>> nets;
  for (int stage = 0; stage < 4; ++stage) {
    nets.push_back(
        std::make_unique<model::CHGNet>(bench_model_config(stage, opt), 17));
  }

  // results[stage][batch index]
  Measurement res[4][3];
  for (std::size_t bi = 0; bi < batches.size(); ++bi) {
    std::vector<index_t> rows;
    for (index_t i = 0; i < batches[bi]; ++i) rows.push_back(i);
    data::Batch b = data::collate_indices(ds, rows);
    std::printf("\nbatch %lld: atoms %lld, bonds %lld, angles %lld\n",
                static_cast<long long>(batches[bi]),
                static_cast<long long>(b.num_atoms),
                static_cast<long long>(b.num_edges),
                static_cast<long long>(b.num_angles));
    for (int stage = 0; stage < 4; ++stage) {
      res[stage][bi] = measure_iteration(*nets[stage], b, reps);
      std::printf("  stage %d %-32s  %8.3f s  %8llu kernels  %7.1f MB\n",
                  stage, kStageNames[stage], res[stage][bi].seconds,
                  static_cast<unsigned long long>(res[stage][bi].kernels),
                  res[stage][bi].peak_bytes / 1048576.0);
      const std::string key = "stage" + std::to_string(stage) + ".batch" +
                              std::to_string(batches[bi]);
      rec.metric(key + ".seconds", res[stage][bi].seconds);
      rec.metric(key + ".kernels",
                 static_cast<double>(res[stage][bi].kernels));
      rec.metric(key + ".peak_bytes",
                 static_cast<double>(res[stage][bi].peak_bytes));
    }
  }

  print_rule();
  std::printf("(a) iteration-time speedups vs reference (paper totals: "
              "4.43-5.62x)\n");
  std::printf("%8s %14s %14s %14s %14s\n", "batch", "par.basis",
              "+fusion", "+decouple", "total");
  for (std::size_t bi = 0; bi < batches.size(); ++bi) {
    std::printf("%8lld %13.2fx %13.2fx %13.2fx %13.2fx\n",
                static_cast<long long>(batches[bi]),
                res[0][bi].seconds / res[1][bi].seconds,
                res[1][bi].seconds / res[2][bi].seconds,
                res[2][bi].seconds / res[3][bi].seconds,
                res[0][bi].seconds / res[3][bi].seconds);
  }
  std::printf("    paper:        2.06-2.52x     1.08-1.18x     1.88-2.00x"
              "     4.43-5.62x\n");

  print_rule();
  std::printf("(b) kernel-launch reduction vs reference (paper: "
              "12.72-20.16x)\n");
  for (std::size_t bi = 0; bi < batches.size(); ++bi) {
    std::printf("%8lld  %llu -> %llu kernels  (%.2fx reduction)\n",
                static_cast<long long>(batches[bi]),
                static_cast<unsigned long long>(res[0][bi].kernels),
                static_cast<unsigned long long>(res[3][bi].kernels),
                static_cast<double>(res[0][bi].kernels) /
                    static_cast<double>(res[3][bi].kernels));
  }

  print_rule();
  std::printf("(c) memory: fusion reduction (paper 1.05-1.07x), decoupling "
              "reduction (paper 3.38-3.50x), total (paper 3.59x)\n");
  for (std::size_t bi = 0; bi < batches.size(); ++bi) {
    const double basis_bump = static_cast<double>(res[1][bi].peak_bytes) /
                              static_cast<double>(res[0][bi].peak_bytes);
    const double fusion = static_cast<double>(res[1][bi].peak_bytes) /
                          static_cast<double>(res[2][bi].peak_bytes);
    const double decouple = static_cast<double>(res[2][bi].peak_bytes) /
                            static_cast<double>(res[3][bi].peak_bytes);
    const double total = static_cast<double>(res[0][bi].peak_bytes) /
                         static_cast<double>(res[3][bi].peak_bytes);
    std::printf("%8lld  par.basis %.2fx (paper: slight increase)  fusion "
                "/%.2f  decouple /%.2f  total /%.2f\n",
                static_cast<long long>(batches[bi]), basis_bump, fusion,
                decouple, total);
  }

  print_rule();
  bool shape_ok = true;
  for (std::size_t bi = 0; bi < batches.size(); ++bi) {
    shape_ok = shape_ok && res[0][bi].seconds > res[3][bi].seconds * 2.0;
    shape_ok = shape_ok && res[0][bi].kernels > res[3][bi].kernels * 4;
    shape_ok = shape_ok && res[2][bi].peak_bytes > res[3][bi].peak_bytes * 2;
  }
  std::printf("[shape %s] at every batch: stage 0/3 time > 2x, stage 0/3 "
              "kernels > 4x, stage 2/3 peak bytes > 2x\n",
              shape_ok ? "OK" : "MISMATCH");
  rec.finish();
  return 0;
}

}  // namespace
}  // namespace fastchg::bench

int main(int argc, char** argv) { return fastchg::bench::run(argc, argv); }
