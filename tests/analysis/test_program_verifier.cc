// Static schedule verifier tests: proof obligations on legal programs,
// rejection of planted defects, the machine-dependent resource check, and the
// differential fuzz harness asserting the soundness direction — the verifier
// never passes a program the interpreter rejects.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/program_verifier.h"
#include "src/evolution/evolution.h"
#include "src/exec/interpreter.h"
#include "src/hwsim/measurer.h"
#include "src/program/program_cache.h"
#include "src/sampler/annotation.h"
#include "src/search/search_policy.h"
#include "src/sketch/sketch.h"
#include "src/support/thread_pool.h"
#include "src/workloads/operators.h"
#include "src/workloads/suites.h"
#include "tests/testing.h"

namespace ansor {
namespace {

LoopTreeNode* FindIfNode(LoopTreeNode* node) {
  if (node->kind == LoopTreeKind::kIf) {
    return node;
  }
  for (LoopTreeNodeRef& child : node->children) {
    if (LoopTreeNode* found = FindIfNode(child.get())) {
      return found;
    }
  }
  return nullptr;
}

LoopTreeNode* FindIfNode(LoweredProgram* program) {
  for (LoopTreeNodeRef& root : program->roots) {
    if (LoopTreeNode* found = FindIfNode(root.get())) {
      return found;
    }
  }
  return nullptr;
}

void CollectStores(LoopTreeNode* node, std::vector<LoopTreeNode*>* out) {
  if (node->kind == LoopTreeKind::kStore) {
    out->push_back(node);
    return;
  }
  for (LoopTreeNodeRef& child : node->children) {
    CollectStores(child.get(), out);
  }
}

TEST(ProgramVerifier, LegalMatmulPassesAllStructuralChecks) {
  ComputeDAG dag = testing::Matmul(16, 16, 16);
  State s(&dag);
  VerifierReport report = VerifyProgram(s, Lower(s));
  EXPECT_TRUE(report.legal()) << report.ToString();
  for (VerifierCheck check : {VerifierCheck::kLowering, VerifierCheck::kBufferBounds,
                              VerifierCheck::kIteratorDomain, VerifierCheck::kDefBeforeUse}) {
    EXPECT_EQ(report.check(check).verdict, VerifierVerdict::kPass) << VerifierCheckName(check);
  }
  // Resource limits are machine-dependent and not part of the structural report.
  EXPECT_EQ(report.check(VerifierCheck::kResourceLimits).verdict, VerifierVerdict::kSkipped);
}

TEST(ProgramVerifier, NonExactSplitGuardIsProvenInBounds) {
  // 16 split by 3 leaves a remainder: the lowering emits a guard, and the
  // verifier must prove the guarded reconstruction in bounds.
  ComputeDAG dag = testing::Matmul(16, 16, 16);
  State s(&dag);
  ASSERT_TRUE(s.Split("C", 0, {3}));
  LoweredProgram program = Lower(s);
  ASSERT_TRUE(program.ok) << program.error;
  ASSERT_NE(FindIfNode(&program), nullptr) << "expected a split guard";
  VerifierReport report = VerifyProgram(s, program);
  EXPECT_TRUE(report.legal()) << report.ToString();
}

TEST(ProgramVerifier, PaddedSelectWorkloadsAreProvenInBounds) {
  // The padding idiom: Select(pad <= x && x < h + pad, data[..., x - pad], 0).
  // The evaluator is lazy, so the load executes only under the condition; the
  // verifier must refine the index range with the dominating Select guard.
  for (const ComputeDAG& dag :
       {testing::ReluPadMatmul(), MakeConv2d(4, 64, 14, 14, 64, 3, 3, 1, 1)}) {
    State s(&dag);
    VerifierReport report = VerifyProgram(s, Lower(s));
    EXPECT_TRUE(report.legal()) << report.ToString();
  }
}

TEST(ProgramVerifier, FailedLoweringFailsTheLoweringCheckOnly) {
  ComputeDAG dag = testing::Matmul(16, 16, 16);
  State s(&dag);
  LoweredProgram failed;
  failed.ok = false;
  failed.error = "synthetic failure";
  VerifierReport report = VerifyProgram(s, failed);
  EXPECT_FALSE(report.legal());
  EXPECT_EQ(report.check(VerifierCheck::kLowering).verdict, VerifierVerdict::kFail);
  // Structural checks need a loop tree: they stay skipped, not vacuously passed.
  EXPECT_EQ(report.check(VerifierCheck::kBufferBounds).verdict, VerifierVerdict::kSkipped);
  EXPECT_EQ(report.check(VerifierCheck::kIteratorDomain).verdict, VerifierVerdict::kSkipped);
}

TEST(ProgramVerifier, UnguardedShiftedReadIsRejected) {
  // C[i] = A[i + 1] over matching shapes reads one past the end; no guard
  // exists, so the bounds check must fail — and the interpreter agrees.
  Tensor a = Placeholder("A", {16});
  Tensor c = Compute("C", {16}, [&](const std::vector<Expr>& i) { return a(i[0] + IntImm(1)); });
  ComputeDAG dag({a, c});
  State s(&dag);
  LoweredProgram program = Lower(s);
  ASSERT_TRUE(program.ok) << program.error;
  VerifierReport report = VerifyProgram(s, program);
  EXPECT_FALSE(report.legal());
  const CheckVerdict& bounds = report.check(VerifierCheck::kBufferBounds);
  EXPECT_EQ(bounds.verdict, VerifierVerdict::kFail);
  ASSERT_FALSE(bounds.diagnostics.empty());
  EXPECT_NE(bounds.diagnostics[0].find("A"), std::string::npos) << bounds.diagnostics[0];
  EXPECT_NE(VerifyAgainstNaive(s, program), "");
}

// The iterator-domain check reads the reconstructions DeriveStageExprs builds
// from the stage's relation record, so corrupting the record (after a legal
// lowering) must make it fire.
bool HasDiagnostic(const CheckVerdict& verdict, const std::string& needle) {
  for (const std::string& diag : verdict.diagnostics) {
    if (diag.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(ProgramVerifier, DroppedAxisRelationLeavesAxisWithoutReconstruction) {
  ComputeDAG dag = testing::Matmul(16, 16, 16);
  State s(&dag);
  ASSERT_TRUE(s.Split("C", 0, {4}));
  LoweredProgram program = Lower(s);
  ASSERT_TRUE(program.ok) << program.error;
  std::vector<IterRelation>& relations = s.stages()[0].relations;
  ASSERT_EQ(relations[0].kind, IterRelationKind::kAxis);
  relations.erase(relations.begin());  // axis i loses its root
  VerifierReport report = VerifyProgram(s, program);
  const CheckVerdict& domain = report.check(VerifierCheck::kIteratorDomain);
  EXPECT_EQ(domain.verdict, VerifierVerdict::kFail);
  EXPECT_TRUE(HasDiagnostic(domain, "has no reconstruction expression")) << report.ToString();
  // i.0 and i.1 no longer reach any axis.
  EXPECT_TRUE(HasDiagnostic(domain, "iterator i.0 does not contribute")) << report.ToString();
  // Lowering the corrupted state fails cleanly instead of crashing.
  LoweredProgram relowered = Lower(s);
  EXPECT_FALSE(relowered.ok);
  EXPECT_NE(relowered.error.find("missing axis reconstruction"), std::string::npos)
      << relowered.error;
}

TEST(ProgramVerifier, RedirectedSplitRelationReferencesDanglingVariable) {
  ComputeDAG dag = testing::Matmul(16, 16, 16);
  State s(&dag);
  ASSERT_TRUE(s.Split("C", 0, {4}));
  LoweredProgram program = Lower(s);
  ASSERT_TRUE(program.ok) << program.error;
  IterRelation& inner = s.stages()[0].relations.back();
  ASSERT_EQ(inner.kind, IterRelationKind::kSplit);
  inner.over = 1000;  // no iterator has this id
  VerifierReport report = VerifyProgram(s, program);
  const CheckVerdict& domain = report.check(VerifierCheck::kIteratorDomain);
  EXPECT_EQ(domain.verdict, VerifierVerdict::kFail);
  EXPECT_TRUE(HasDiagnostic(domain, "references dangling variable <iterator 1000>"))
      << report.ToString();
  EXPECT_TRUE(HasDiagnostic(domain, "iterator i.1 does not contribute")) << report.ToString();

  // A wrong multiplier keeps every variable but breaks the axis's coverage.
  inner.over = s.stage(0).iters[1].id;
  s.stages()[0].relations[s.stages()[0].relations.size() - 2].factor = 8;
  report = VerifyProgram(s, program);
  EXPECT_TRUE(HasDiagnostic(report.check(VerifierCheck::kIteratorDomain),
                            "without a guard"))
      << report.ToString();
}

TEST(ProgramVerifier, StrippedSplitGuardIsCaughtStatically) {
  // Disabling a split guard makes the tail iterations run out of bounds. The
  // verifier must catch it, and the interpreter must reject the same program
  // — the agreement the differential fuzz test checks at scale.
  ComputeDAG dag = testing::Matmul(16, 16, 16);
  State s(&dag);
  ASSERT_TRUE(s.Split("C", 0, {3}));
  LoweredProgram program = Lower(s);
  ASSERT_TRUE(program.ok) << program.error;
  LoopTreeNode* guard = FindIfNode(&program);
  ASSERT_NE(guard, nullptr);
  guard->condition = IntImm(1);  // always true: the guard is gone

  VerifierReport report = VerifyProgram(s, program);
  EXPECT_FALSE(report.legal());
  EXPECT_EQ(report.check(VerifierCheck::kBufferBounds).verdict, VerifierVerdict::kFail);
  EXPECT_NE(VerifyAgainstNaive(s, program), "");
}

TEST(ProgramVerifier, VectorizeBeyondMachineWidthFailsResourceCheck) {
  ComputeDAG dag = testing::Matmul(16, 16, 16);
  State s(&dag);
  ASSERT_TRUE(s.Annotate("C", 1, IterAnnotation::kVectorize));
  LoweredProgram program = Lower(s);
  ASSERT_TRUE(program.ok) << program.error;

  MachineModel narrow = MachineModel::IntelCpu20Core();
  narrow.max_vector_extent = 8;  // the annotated loop has extent 16
  CheckVerdict verdict = VerifyResources(program, narrow);
  EXPECT_EQ(verdict.verdict, VerifierVerdict::kFail);
  ASSERT_FALSE(verdict.diagnostics.empty());
  EXPECT_NE(verdict.diagnostics[0].find("vectorized"), std::string::npos);

  MachineModel unlimited = MachineModel::IntelCpu20Core();
  unlimited.max_vector_extent = 0;
  EXPECT_EQ(VerifyResources(program, unlimited).verdict, VerifierVerdict::kPass);
}

TEST(ProgramVerifier, FootprintBeyondMemoryCapacityFailsResourceCheck) {
  ComputeDAG dag = testing::Matmul(16, 16, 16);
  State s(&dag);
  LoweredProgram program = Lower(s);
  ASSERT_TRUE(program.ok);

  MachineModel tiny = MachineModel::IntelCpu20Core();
  tiny.memory_capacity_bytes = 256;  // three 16x16 buffers cannot fit
  CheckVerdict verdict = VerifyResources(program, tiny);
  EXPECT_EQ(verdict.verdict, VerifierVerdict::kFail);
  ASSERT_FALSE(verdict.diagnostics.empty());
  EXPECT_NE(verdict.diagnostics[0].find("footprint"), std::string::npos);

  EXPECT_EQ(VerifyResources(program, MachineModel::IntelCpu20Core()).verdict,
            VerifierVerdict::kPass);
}

// The static resource verdict and the (simulated) machine agree: a program
// the verifier rejects for a machine never measures valid on it, and a
// resource-legal program still measures valid. Without this agreement the
// pre-filter could either leak invalid trials or starve the search.
TEST(ProgramVerifier, ResourceVerdictMatchesSimulatedMeasurement) {
  ComputeDAG dag = testing::Matmul(16, 16, 16);
  State s(&dag);
  ASSERT_TRUE(s.Annotate("C", 1, IterAnnotation::kVectorize));
  LoweredProgram program = Lower(s);
  ASSERT_TRUE(program.ok) << program.error;

  MachineModel narrow = MachineModel::IntelCpu20Core();
  narrow.max_vector_extent = 8;  // the annotated loop has extent 16
  ASSERT_EQ(VerifyResources(program, narrow).verdict, VerifierVerdict::kFail);
  MeasureResult rejected = Measurer(narrow).Measure(s);
  EXPECT_FALSE(rejected.valid);
  EXPECT_NE(rejected.error.find("vectorized"), std::string::npos) << rejected.error;

  MachineModel wide = MachineModel::IntelCpu20Core();
  ASSERT_EQ(VerifyResources(program, wide).verdict, VerifierVerdict::kPass);
  MeasureResult accepted = Measurer(wide).Measure(s);
  EXPECT_TRUE(accepted.valid) << accepted.error;

  MachineModel tiny = MachineModel::IntelCpu20Core();
  tiny.memory_capacity_bytes = 256;
  ASSERT_EQ(VerifyResources(program, tiny).verdict, VerifierVerdict::kFail);
  MeasureResult oom = Measurer(tiny).Measure(s);
  EXPECT_FALSE(oom.valid);
  EXPECT_NE(oom.error.find("footprint"), std::string::npos) << oom.error;
}

TEST(ProgramVerifier, ArtifactStampsReportAndChecksResourcesPerMachine) {
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  ProgramCache cache;
  State s(&dag);
  ProgramArtifactPtr artifact = cache.GetOrBuild(s);
  ASSERT_TRUE(artifact->ok());
  EXPECT_TRUE(artifact->verifier_report().legal());
  EXPECT_TRUE(artifact->statically_legal());

  // Each machine's verdict is checked from the artifact's resource summary
  // and equals the check on a fresh lowering.
  MachineModel intel = MachineModel::IntelCpu20Core();
  MachineModel tiny = MachineModel::IntelCpu20Core();
  tiny.memory_capacity_bytes = 256;
  for (const MachineModel& machine : {intel, MachineModel::ArmCpu4Core(), tiny}) {
    const CheckVerdict expected = VerifyResources(Lower(s), machine);
    const CheckVerdict got = artifact->resource_verdict(machine);
    EXPECT_EQ(got.verdict, expected.verdict);
    EXPECT_EQ(got.diagnostics, expected.diagnostics);
    EXPECT_EQ(artifact->statically_legal(&machine), !expected.failed());
  }
  EXPECT_TRUE(artifact->statically_legal(&intel));
  EXPECT_FALSE(artifact->statically_legal(&tiny));
}

TEST(ProgramVerifier, EvolutionCountsStaticRejections) {
  // A state that replays fine but fails lowering is statically illegal
  // (lowering check): the evolution counter must see it.
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  // Computing D at C replays fine (both stages exist) but cannot lower:
  // C does not read D. A deterministic replay-ok, lowering-fail state.
  State unlowerable(&dag);
  ASSERT_TRUE(unlowerable.ComputeAt("D", "C", 0));
  ASSERT_FALSE(unlowerable.failed());
  ASSERT_FALSE(Lower(unlowerable).ok);

  Rng pop_rng(8);
  std::vector<State> init = SampleLowerablePopulation(&dag, 4, &pop_rng);
  init.push_back(unlowerable);

  RandomCostModel model(9);
  EvolutionOptions options;
  options.population = 8;
  options.generations = 1;
  EvolutionarySearch es(&dag, &model, Rng(10), options);
  EXPECT_FALSE(es.Evolve(init, 4).empty());
  EXPECT_GE(es.stats().statically_rejected, 1);
}

TEST(ProgramVerifier, StaticFilterSavesMeasurementTrialsAtEqualBudget) {
  // Softmax over 512-wide rows makes the vectorize mutation annotate a
  // 512-extent loop, beyond the Intel model's 256-lane register budget. Such
  // a program fails on the simulated machine, so measuring it would burn a
  // trial; the verifier rejects it before the measurer sees it.
  ComputeDAG dag = MakeSoftmax(64, 512);
  const MachineModel intel = MachineModel::IntelCpu20Core();
  State wide(&dag);
  ASSERT_TRUE(wide.Annotate("softmax", 1, IterAnnotation::kVectorize));
  ASSERT_EQ(wide.stage(wide.StageIndex("softmax")).iters[1].extent, 512);
  EXPECT_FALSE(Measurer(intel).Measure(wide).valid);
  ProgramCache cache;
  EXPECT_FALSE(cache.GetOrBuild(wide)->statically_legal(&intel));

  // A 16-trial tuning round: every candidate of that kind is rejected
  // statically, so no trial comes back invalid.
  Measurer measurer(intel);
  GbdtCostModel model;
  SearchOptions options;
  options.population = 40;
  options.generations = 3;
  options.random_samples_per_round = 16;
  TaskTuner tuner(MakeSearchTask("softmax", MakeSoftmax(64, 512)), &measurer, &model,
                  options);
  tuner.TuneRound(16);
  EXPECT_EQ(tuner.invalid_measures(), 0);
  EXPECT_GT(tuner.statically_rejected(), 0);
}

TEST(ProgramVerifier, TunedFig6ProgramsAreStructurallyLegal) {
  // Every program a short search lowers passes the machine-independent
  // checks (bounds, iterator domains, def-before-use): the schedule
  // primitives, the sampler and the evolution operators never build a
  // lowerable program that reads out of bounds or out of order. Covers each
  // batch-1 Fig. 6 case with the CPU sampler and with the GPU sampler.
  for (bool gpu : {false, true}) {
    const MachineModel machine =
        gpu ? MachineModel::NvidiaGpu() : MachineModel::IntelCpu20Core();
    for (OpBenchCase& c : SingleOpSuite(1)) {
      SCOPED_TRACE(c.op + " " + c.shape + (gpu ? " gpu" : " cpu"));
      Measurer measurer(machine);
      GbdtCostModel model;
      ProgramCache cache;
      SearchOptions options = testing::SmallSearchOptions();
      options.sampler.gpu = gpu;
      options.program_cache = &cache;
      TuneTask(MakeSearchTask(c.op, std::move(c.dag)), &measurer, &model,
               /*num_measure_trials=*/24, /*measures_per_round=*/8, options);
      size_t lowered = 0;
      cache.ForEach([&](const ProgramArtifactPtr& artifact) {
        if (artifact->ok()) {
          ++lowered;
          EXPECT_TRUE(artifact->verifier_report().legal())
              << artifact->verifier_report().ToString();
        }
      });
      EXPECT_GT(lowered, 0u);
    }
  }
}

TEST(ProgramVerifierConcurrency, ParallelVerdictsThroughSharedCache) {
  // Many threads resolving verdicts for the same artifacts through a sharded
  // cache, against two machines: exercises concurrent reads of shared
  // artifacts (run under the tsan preset via the ProgramVerifier filter).
  ComputeDAG dag = testing::MatmulRelu(16, 16, 16);
  Rng rng(17);
  auto population = SampleLowerablePopulation(&dag, 8, &rng);
  ASSERT_EQ(population.size(), 8u);

  MachineModel machines[2] = {MachineModel::IntelCpu20Core(), MachineModel::ArmCpu4Core()};
  ProgramCache cache(/*capacity=*/64, /*num_shards=*/4);
  ThreadPool pool(4);
  const size_t kLookups = 256;
  std::vector<CheckVerdict> verdicts(kLookups);
  std::vector<char> legal(kLookups);
  pool.ParallelFor(kLookups, [&](size_t i) {
    ProgramArtifactPtr artifact = cache.GetOrBuild(population[i % population.size()]);
    const MachineModel& machine = machines[(i / population.size()) % 2];
    verdicts[i] = artifact->resource_verdict(machine);
    legal[i] = artifact->statically_legal(&machine) ? 1 : 0;
  });
  for (size_t i = 0; i < kLookups; ++i) {
    EXPECT_EQ(verdicts[i].verdict, VerifierVerdict::kPass);
    EXPECT_EQ(legal[i], 1);
    // Same state + same machine ⇒ the same verdict, no matter which thread
    // resolved it.
    size_t twin = i + population.size() * 2;
    if (twin < kLookups) {
      EXPECT_EQ(verdicts[i].verdict, verdicts[twin].verdict);
      EXPECT_EQ(verdicts[i].diagnostics, verdicts[twin].diagnostics);
    }
  }
}

// ---------------------------------------------------------------------------
// Differential fuzz: the soundness gate. Over a large corpus of distinct
// lowered programs — sampled, mutated, and deliberately corrupted — a program
// the static verifier passes must also pass the interpreter's end-to-end
// check against the naive execution. The converse direction (static reject,
// interpreter accept) is allowed: the verifier is conservative.
// ---------------------------------------------------------------------------

TEST(ProgramVerifierFuzz, StaticAcceptNeverContradictsInterpreter) {
  std::vector<ComputeDAG> dags;
  dags.push_back(testing::Matmul(16, 16, 16));
  dags.push_back(testing::MatmulRelu(12, 12, 12));
  dags.push_back(testing::ReluPadMatmul());
  dags.push_back(testing::MatrixNorm(8, 32));
  dags.push_back(MakeConv2d(1, 4, 6, 6, 4, 3, 3, 1, 1));

  RandomCostModel model(11);
  std::vector<std::vector<State>> sketches;
  std::vector<std::unique_ptr<EvolutionarySearch>> searches;
  for (ComputeDAG& dag : dags) {
    sketches.push_back(GenerateSketches(&dag));
    searches.push_back(std::make_unique<EvolutionarySearch>(&dag, &model, Rng(13)));
  }

  Rng rng(2024);
  std::set<std::string> seen;
  int checked = 0;        // distinct lowered programs put through both judges
  int static_legal = 0;   // verifier accepts
  int caught = 0;         // verifier and interpreter both reject
  auto judge = [&](const State& s, const LoweredProgram& program, const std::string& sig) {
    if (!seen.insert(sig).second) {
      return;
    }
    ++checked;
    VerifierReport report = VerifyProgram(s, program);
    std::string dynamic = VerifyAgainstNaive(s, program);
    if (report.legal()) {
      ++static_legal;
      EXPECT_EQ(dynamic, "") << "static verifier passed a program the interpreter rejects:\n"
                             << report.ToString() << s.ToString();
    } else if (!dynamic.empty()) {
      ++caught;
    }
  };

  for (int attempt = 0; attempt < 5000 && checked < 600; ++attempt) {
    size_t d = static_cast<size_t>(attempt) % dags.size();
    const ComputeDAG* dag = &dags[d];
    State s = SampleCompleteProgram(sketches[d][rng.Index(sketches[d].size())], dag, &rng);
    if (s.failed()) {
      continue;
    }
    for (int64_t m = rng.Int(0, 2); m > 0; --m) {
      EvolutionarySearch& es = *searches[d];
      State mutated = State::Failure(dag, "unset");
      switch (rng.Int(0, 3)) {
        case 0: mutated = es.MutateTileSize(s); break;
        case 1: mutated = es.MutateParallelGranularity(s); break;
        case 2: mutated = es.MutateVectorize(s); break;
        default: mutated = es.MutateComputeLocation(s); break;
      }
      if (!mutated.failed()) {
        s = std::move(mutated);
      }
    }
    LoweredProgram program = Lower(s);
    if (!program.ok) {
      continue;
    }
    std::string sig = std::to_string(d) + "/" + StepSignature(s);
    judge(s, program, sig);

    // A corrupted twin: strip a guard if one exists, otherwise shift a store
    // index out of range. Both plant a real out-of-bounds defect, so the
    // verifier-catches-it counter must come out well above zero.
    LoweredProgram corrupted = Lower(s);
    if (LoopTreeNode* guard = FindIfNode(&corrupted)) {
      guard->condition = IntImm(1);
      judge(s, corrupted, sig + "/unguarded");
    } else {
      std::vector<LoopTreeNode*> stores;
      for (LoopTreeNodeRef& root : corrupted.roots) {
        CollectStores(root.get(), &stores);
      }
      if (!stores.empty() && !stores.back()->indices.empty()) {
        stores.back()->indices.back() = stores.back()->indices.back() + IntImm(1);
        judge(s, corrupted, sig + "/shifted");
      }
    }
  }

  EXPECT_GE(checked, 500) << "fuzz corpus too small to be meaningful";
  EXPECT_GT(static_legal, 100);
  EXPECT_GT(caught, 100) << "planted defects must be caught by both judges";
}

}  // namespace
}  // namespace ansor
