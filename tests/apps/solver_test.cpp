// E6: the Figure 6 solver runs unmodified on all three memories; on the
// synchronous path it reproduces the sequential Jacobi reference
// bit-for-bit (the paper's Section 4.1 claim that every read returns
// exactly the previous phase's value).
#include "causalmem/apps/solver/solver.hpp"

#include <gtest/gtest.h>

#include "causalmem/dsm/atomic/node.hpp"
#include "causalmem/dsm/broadcast/node.hpp"
#include "causalmem/dsm/causal/node.hpp"
#include "causalmem/dsm/system.hpp"
#include "causalmem/history/consistency.hpp"
#include "causalmem/history/recorder.hpp"

namespace causalmem {
namespace {

template <typename NodeT>
SolverRun run_sync_on(const SolverProblem& p, std::size_t iters,
                      typename NodeT::Config cfg = {},
                      OpObserver* observer = nullptr,
                      StatsSnapshot* stats_out = nullptr) {
  const SolverLayout layout(p.n);
  DsmSystem<NodeT> sys(layout.node_count(), cfg, {}, layout.make_ownership(),
                       observer);
  std::vector<SharedMemory*> mems;
  for (NodeId i = 0; i < layout.node_count(); ++i) mems.push_back(&sys.memory(i));
  SolverOptions opts;
  opts.iterations = iters;
  const SolverRun run = run_sync_solver(p, layout, mems, opts);
  if (stats_out != nullptr) *stats_out = sys.stats().total();
  return run;
}

TEST(SolverProblem, GeneratedSystemsAreDiagonallyDominant) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const SolverProblem p = SolverProblem::random(6, seed);
    for (std::size_t i = 0; i < p.n; ++i) {
      double off = 0;
      for (std::size_t j = 0; j < p.n; ++j) {
        if (i != j) off += std::abs(p.a_at(i, j));
      }
      EXPECT_GT(std::abs(p.a_at(i, i)), off);
    }
  }
}

TEST(SolverProblem, JacobiReferenceConvergesToExactSolution) {
  const SolverProblem p = SolverProblem::random(8, 42);
  const auto exact = p.exact_solution();
  EXPECT_LT(p.residual(exact), 1e-9);
  const auto jac = p.jacobi_reference(60);
  for (std::size_t i = 0; i < p.n; ++i) {
    EXPECT_NEAR(jac[i], exact[i], 1e-8);
  }
}

TEST(SyncSolver, OnCausalMemoryMatchesReferenceBitForBit) {
  const SolverProblem p = SolverProblem::random(5, 7);
  const auto ref = p.jacobi_reference(12);
  const SolverRun run = run_sync_on<CausalNode>(p, 12);
  ASSERT_EQ(run.x.size(), p.n);
  for (std::size_t i = 0; i < p.n; ++i) {
    EXPECT_EQ(run.x[i], ref[i]) << "component " << i << " must be identical";
  }
}

TEST(SyncSolver, OnAtomicMemoryMatchesReferenceBitForBit) {
  const SolverProblem p = SolverProblem::random(5, 7);
  const auto ref = p.jacobi_reference(12);
  const SolverRun run = run_sync_on<AtomicNode>(p, 12);
  for (std::size_t i = 0; i < p.n; ++i) EXPECT_EQ(run.x[i], ref[i]);
}

TEST(SyncSolver, OnBroadcastMemoryConverges) {
  // Broadcast memory is weaker than causal; the synchronous handshake still
  // orders phases through the flags, but we only assert convergence.
  const SolverProblem p = SolverProblem::random(4, 9);
  const SolverRun run = run_sync_on<BroadcastNode>(p, 40);
  EXPECT_LT(p.residual(run.x), 1e-6);
}

TEST(SyncSolver, CausalRunWithoutConstantProtectionStillCorrect) {
  const SolverProblem p = SolverProblem::random(4, 11);
  const auto ref = p.jacobi_reference(10);
  const SolverLayout layout(p.n);
  DsmSystem<CausalNode> sys(layout.node_count(), {}, {},
                            layout.make_ownership());
  std::vector<SharedMemory*> mems;
  for (NodeId i = 0; i < layout.node_count(); ++i) mems.push_back(&sys.memory(i));
  SolverOptions opts;
  opts.iterations = 10;
  opts.protect_constants = false;
  const SolverRun run = run_sync_solver(p, layout, mems, opts);
  for (std::size_t i = 0; i < p.n; ++i) EXPECT_EQ(run.x[i], ref[i]);
}

TEST(SyncSolver, ReadOnlyProtectionSavesMessages) {
  const SolverProblem p = SolverProblem::random(6, 13);
  const SolverLayout layout(p.n);
  StatsSnapshot with_protection{}, without_protection{};
  for (const bool protect : {true, false}) {
    DsmSystem<CausalNode> sys(layout.node_count(), {}, {},
                              layout.make_ownership());
    std::vector<SharedMemory*> mems;
    for (NodeId i = 0; i < layout.node_count(); ++i) {
      mems.push_back(&sys.memory(i));
    }
    SolverOptions opts;
    opts.iterations = 10;
    opts.protect_constants = protect;
    (void)run_sync_solver(p, layout, mems, opts);
    (protect ? with_protection : without_protection) = sys.stats().total();
  }
  EXPECT_LT(with_protection.messages_sent(),
            without_protection.messages_sent())
      << "footnote-2 enhancement must reduce traffic";
}

TEST(SyncSolver, CausalExecutionHistoryPassesChecker) {
  const SolverProblem p = SolverProblem::random(4, 21);
  const SolverLayout layout(p.n);
  Recorder recorder(layout.node_count());
  (void)run_sync_on<CausalNode>(p, 6, {}, &recorder);
  const ConsistencyReport cons = check_consistency(recorder.history());
  EXPECT_TRUE(cons.ok()) << cons.reason;
}

template <typename NodeT>
SolverRun run_async_on(const SolverProblem& p,
                       typename NodeT::Config cfg = {}) {
  const SolverLayout layout(p.n);
  DsmSystem<NodeT> sys(layout.node_count(), cfg, {}, layout.make_ownership());
  std::vector<SharedMemory*> mems;
  for (NodeId i = 0; i < layout.node_count(); ++i) {
    mems.push_back(&sys.memory(i));
  }
  SolverOptions opts;
  opts.iterations = 200000;  // safety valve; convergence stops the run
  opts.tolerance = 1e-8;
  return run_async_solver(p, layout, mems, opts);
}

TEST(AsyncSolver, ConvergesOnCausalMemory) {
  const SolverProblem p = SolverProblem::random(6, 33);
  const SolverRun run = run_async_on<CausalNode>(p);
  EXPECT_TRUE(run.converged);
  EXPECT_LT(p.residual(run.x), 1e-6) << "chaotic relaxation must converge";
}

TEST(AsyncSolver, ConvergesOnAtomicMemory) {
  const SolverProblem p = SolverProblem::random(5, 34);
  const SolverRun run = run_async_on<AtomicNode>(p);
  EXPECT_TRUE(run.converged);
  EXPECT_LT(p.residual(run.x), 1e-6);
}

// (No broadcast-memory async test: unsynchronized sweeps flood a
// full-replication memory with n-1 messages per write, so delivery lag — not
// the algorithm — dominates. The paper claims the asynchronous solver for
// causal memory, where writes are owned-local.)

TEST(AsyncSolver, NonBlockingWritesAlsoConverge) {
  const SolverProblem p = SolverProblem::random(5, 35);
  CausalConfig cfg;
  cfg.write_mode = WriteMode::kAsync;
  const SolverRun run = run_async_on<CausalNode>(p, cfg);
  EXPECT_TRUE(run.converged);
  EXPECT_LT(p.residual(run.x), 1e-6);
}

TEST(BlockSolver, FewerWorkersThanElementsStillBitExact) {
  // The paper: "the code is easily modified so that each process computes a
  // set of elements."
  const SolverProblem p = SolverProblem::random(7, 71);
  const auto ref = p.jacobi_reference(10);
  for (const std::size_t workers : {1u, 2u, 3u, 7u}) {
    const SolverLayout layout(p.n, workers);
    DsmSystem<CausalNode> sys(layout.node_count(), {}, {},
                              layout.make_ownership());
    std::vector<SharedMemory*> mems;
    for (NodeId i = 0; i < layout.node_count(); ++i) {
      mems.push_back(&sys.memory(i));
    }
    SolverOptions opts;
    opts.iterations = 10;
    const SolverRun run = run_sync_solver(p, layout, mems, opts);
    for (std::size_t i = 0; i < p.n; ++i) {
      EXPECT_EQ(run.x[i], ref[i]) << "workers=" << workers << " i=" << i;
    }
  }
}

TEST(BlockSolver, BlocksPartitionAllElements) {
  const SolverLayout layout(10, 3);
  std::vector<int> counts(3, 0);
  for (std::size_t i = 0; i < 10; ++i) {
    const NodeId w = layout.worker_of(i);
    ASSERT_LT(w, 3u);
    ++counts[w];
    if (i > 0) {
      EXPECT_GE(layout.worker_of(i), layout.worker_of(i - 1))
          << "blocks must be contiguous";
    }
  }
  for (const int c : counts) EXPECT_GT(c, 0);
}

TEST(BlockSolver, AsyncBlockedConverges) {
  const SolverProblem p = SolverProblem::random(8, 72);
  const SolverLayout layout(p.n, 3);
  DsmSystem<CausalNode> sys(layout.node_count(), {}, {},
                            layout.make_ownership());
  std::vector<SharedMemory*> mems;
  for (NodeId i = 0; i < layout.node_count(); ++i) {
    mems.push_back(&sys.memory(i));
  }
  SolverOptions opts;
  opts.iterations = 200000;
  opts.tolerance = 1e-8;
  const SolverRun run = run_async_solver(p, layout, mems, opts);
  EXPECT_TRUE(run.converged);
  EXPECT_LT(p.residual(run.x), 1e-6);
}

template <typename NodeT>
void decentralized_matches_reference() {
  const SolverProblem p = SolverProblem::random(6, 73);
  const auto ref = p.jacobi_reference(8);
  const DecentralizedSolverLayout layout(p.n, 3);
  DsmSystem<NodeT> sys(layout.node_count(), {}, {}, layout.make_ownership());
  std::vector<SharedMemory*> mems;
  for (NodeId i = 0; i < layout.node_count(); ++i) {
    mems.push_back(&sys.memory(i));
  }
  SolverOptions opts;
  opts.iterations = 8;
  const SolverRun run = run_decentralized_solver(p, layout, mems, opts);
  for (std::size_t i = 0; i < p.n; ++i) {
    EXPECT_EQ(run.x[i], ref[i]) << "component " << i;
  }
}

TEST(DecentralizedSolver, BarrierVersionBitExactOnCausal) {
  decentralized_matches_reference<CausalNode>();
}

TEST(DecentralizedSolver, BarrierVersionBitExactOnAtomic) {
  decentralized_matches_reference<AtomicNode>();
}

TEST(MessageCounts, CausalBeatsAtomicPerIteration) {
  // The paper's analytical claim, measured: causal ~ 2n+6, atomic >= 3n+5
  // effective messages per worker per iteration (spin refetches excluded).
  const std::size_t n = 6;
  const std::size_t iters = 20;
  const SolverProblem p = SolverProblem::random(n, 55);

  StatsSnapshot causal{}, atomic{};
  (void)run_sync_on<CausalNode>(p, iters, {}, nullptr, &causal);
  (void)run_sync_on<AtomicNode>(p, iters, {}, nullptr, &atomic);

  const auto effective = [&](const StatsSnapshot& s) {
    return static_cast<double>(s.messages_sent() -
                               2 * s[Counter::kSpinRefetch]) /
           static_cast<double>(n * iters);
  };
  const double causal_per = effective(causal);
  const double atomic_per = effective(atomic);
  EXPECT_LT(causal_per, atomic_per)
      << "causal memory must need fewer messages than atomic";
  // Shape: causal close to 2n+6, atomic at least 3n+5 minus slack for
  // startup effects (amortized over iterations).
  EXPECT_LT(causal_per, 2.0 * n + 6 + 4.0);
  EXPECT_GT(atomic_per, 3.0 * n - 2.0);
}

}  // namespace
}  // namespace causalmem
