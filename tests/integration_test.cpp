// Cross-cutting integration sweeps: every pipeline mode x several seeds on
// generated workloads, and real circuit families (library + RevLib text)
// driven end-to-end from gates to verified compressed geometry.
#include <gtest/gtest.h>

#include "core/compiler.h"
#include "core/paper_tables.h"
#include "decompose/decompose.h"
#include "geom/validate.h"
#include "icm/builder.h"
#include "icm/workload.h"
#include "qcir/library.h"
#include "qcir/optimizer.h"
#include "qcir/revlib.h"
#include "verify/verifier.h"

namespace tqec {
namespace {

struct SweepParam {
  core::PipelineMode mode;
  std::uint64_t seed;
};

class ModeSeedSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ModeSeedSweep, CompilesLegallyWithValidGeometry) {
  const auto [mode, seed] = GetParam();
  icm::WorkloadSpec spec;
  spec.qubits = 60;
  spec.cnots = 90;
  spec.y_states = 20;
  spec.a_states = 10;
  spec.seed = 21;
  const icm::IcmCircuit circuit = icm::make_workload(spec);

  core::CompileOptions opt;
  opt.mode = mode;
  opt.seed = seed;
  opt.keep_internals = true;
  const core::CompileResult result = core::compile(circuit, opt);

  EXPECT_TRUE(result.routed_legal);
  EXPECT_GT(result.volume, 0);
  EXPECT_LT(result.volume, result.canonical_volume);
  const auto geometry_report = geom::validate(result.geometry);
  EXPECT_TRUE(geometry_report.ok()) << geometry_report.summary();
  const auto verify_report = verify::verify_result(result);
  EXPECT_TRUE(verify_report.ok()) << verify_report.summary();
}

INSTANTIATE_TEST_SUITE_P(
    AllModesAndSeeds, ModeSeedSweep,
    ::testing::Values(SweepParam{core::PipelineMode::Full, 1},
                      SweepParam{core::PipelineMode::Full, 2},
                      SweepParam{core::PipelineMode::Full, 3},
                      SweepParam{core::PipelineMode::DualOnly, 1},
                      SweepParam{core::PipelineMode::DualOnly, 2},
                      SweepParam{core::PipelineMode::ModularOnly, 1},
                      SweepParam{core::PipelineMode::ModularOnly, 2}));

/// Drive a gate-level circuit through the complete stack.
core::CompileResult compile_gates(const qcir::Circuit& gates) {
  const qcir::Circuit optimized = qcir::optimize(gates);
  const qcir::Circuit clifford_t = decompose::decompose(optimized);
  const icm::IcmCircuit icm = icm::from_clifford_t(clifford_t);
  core::CompileOptions opt;
  opt.seed = 7;
  opt.keep_internals = true;
  return core::compile(icm, opt);
}

TEST(EndToEndFamiliesTest, RippleAdder) {
  const auto result = compile_gates(qcir::make_ripple_adder(2));
  EXPECT_TRUE(result.routed_legal);
  EXPECT_TRUE(verify::verify_result(result).ok());
  // 2-bit adder: 4 Toffolis -> 28 T gates -> 28 |A>.
  EXPECT_EQ(result.stats.a_states, 28);
  EXPECT_EQ(result.stats.y_states, 56);
}

TEST(EndToEndFamiliesTest, GroverDiffusion) {
  const auto result = compile_gates(qcir::make_grover_diffusion(4));
  EXPECT_TRUE(result.routed_legal);
  EXPECT_TRUE(verify::verify_result(result).ok());
  EXPECT_GT(result.stats.a_states, 0);  // the MCT contributes T gates
}

TEST(EndToEndFamiliesTest, IncrementWithWideMct) {
  const auto result = compile_gates(qcir::make_increment(5));
  EXPECT_TRUE(result.routed_legal);
  EXPECT_TRUE(verify::verify_result(result).ok());
}

TEST(EndToEndFamiliesTest, RevLibTextToGeometry) {
  const char* doc =
      ".version 1.0\n.numvars 4\n.variables a b c d\n.begin\n"
      "t3 a b c\nt2 c d\nt3 b c d\nt1 a\n.end\n";
  const qcir::Circuit parsed = qcir::parse_real_string(doc, "inline");
  const auto result = compile_gates(parsed);
  EXPECT_TRUE(result.routed_legal);
  EXPECT_TRUE(verify::verify_result(result).ok());
  EXPECT_LT(result.volume * 2, result.canonical_volume);
}

TEST(EndToEndFamiliesTest, OptimizerShrinksRedundantCircuit) {
  // A circuit with a cancellable pair must never compress worse than its
  // optimized form by more than SA noise — and the optimizer must shrink
  // the ICM problem itself.
  qcir::Circuit noisy(4, "noisy");
  noisy.add(qcir::Gate::toffoli(0, 1, 2));
  noisy.add(qcir::Gate::toffoli(0, 1, 2));  // cancels
  noisy.add(qcir::Gate::toffoli(1, 2, 3));
  const qcir::Circuit lean = qcir::optimize(noisy);
  EXPECT_EQ(lean.size(), 1u);
  const icm::IcmStats noisy_stats =
      icm::from_clifford_t(decompose::decompose(noisy)).stats();
  const icm::IcmStats lean_stats =
      icm::from_clifford_t(decompose::decompose(lean)).stats();
  EXPECT_LT(lean_stats.qubits, noisy_stats.qubits);
  EXPECT_LT(lean_stats.a_states, noisy_stats.a_states);
}

TEST(EndToEndFamiliesTest, SeedsChangeLayoutNotLegality) {
  icm::WorkloadSpec spec;
  spec.qubits = 40;
  spec.cnots = 60;
  spec.y_states = 12;
  spec.a_states = 6;
  const icm::IcmCircuit circuit = icm::make_workload(spec);
  std::int64_t previous = -1;
  bool any_difference = false;
  for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
    core::CompileOptions opt;
    opt.seed = seed;
    opt.emit_geometry = false;
    const auto result = core::compile(circuit, opt);
    EXPECT_TRUE(result.routed_legal) << seed;
    if (previous >= 0 && result.volume != previous) any_difference = true;
    previous = result.volume;
  }
  EXPECT_TRUE(any_difference) << "seeds should explore different layouts";
}

// 4gt4-v0_73 in ModularOnly mode at seed 7 cannot be legalized: its
// negotiation ends with 99 overused cells, and hard-block repair's first
// scan leaves more than it started with. Repair must undo such a scan, so
// the result never reports more overuse than negotiation handed over.
TEST(EndToEndFamiliesTest, RepairNeverAddsOverusedCells) {
  core::CompileOptions opt;
  opt.mode = core::PipelineMode::ModularOnly;
  opt.seed = 7;
  opt.emit_geometry = false;
  const core::CompileResult r = core::compile(
      icm::make_workload(
          core::workload_spec(core::paper_benchmark("4gt4-v0_73"))),
      opt);
  ASSERT_FALSE(r.routed_legal);
  ASSERT_FALSE(r.routing.overused_per_iter.empty());
  EXPECT_EQ(r.routing.overused_per_iter.back(), 99);
  EXPECT_GT(r.routing.repair_awarded, 0);
  EXPECT_LE(r.routing.overused_cells, r.routing.overused_per_iter.back());
}

}  // namespace
}  // namespace tqec
