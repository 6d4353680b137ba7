// Public facade (pardsm::System) and the efficiency analyzer.

#include <gtest/gtest.h>

#include "core/analysis.h"
#include "core/dsm.h"
#include "history/checkers.h"
#include "sharegraph/topologies.h"

namespace pardsm {
namespace {

SystemConfig pram_on_chain() {
  SystemConfig config;
  config.protocol = mcs::ProtocolKind::kPramPartial;
  config.distribution = graph::topo::chain_with_hoop(4);
  config.latency_lo = millis(1);
  config.latency_hi = millis(3);
  return config;
}

TEST(SystemFacade, WriteThenRemoteReadAfterPropagation) {
  System dsm(pram_on_chain());
  // Variable 0 (x) is shared by processes 0 and 3.
  dsm.at(kTimeZero, [&] { dsm.write(0, 0, 42, [] {}); });
  dsm.run();
  EXPECT_EQ(dsm.read_now(3, 0), 42);
  EXPECT_EQ(dsm.read_now(0, 0), 42);
}

TEST(SystemFacade, ReadNowBeforeAnyWriteIsBottom) {
  System dsm(pram_on_chain());
  EXPECT_EQ(dsm.read_now(0, 0), kBottom);
}

TEST(SystemFacade, HistoryIsRecorded) {
  System dsm(pram_on_chain());
  dsm.at(kTimeZero, [&] {
    dsm.write(0, 0, 1, [&] { dsm.read(0, 0, [](Value) {}); });
  });
  dsm.run();
  const auto h = dsm.history();
  EXPECT_EQ(h.size(), 2u);
  EXPECT_TRUE(
      hist::check_history(h, hist::Criterion::kPram).consistent);
}

TEST(SystemFacade, ReadNowRejectedForBlockingProtocols) {
  SystemConfig config;
  config.protocol = mcs::ProtocolKind::kAtomicHome;
  config.distribution = graph::topo::complete(3, 2);
  System dsm(std::move(config));
  EXPECT_THROW((void)dsm.read_now(1, 0), std::logic_error);
}

TEST(SystemFacade, AfterSchedulesRelative) {
  System dsm(pram_on_chain());
  bool fired = false;
  dsm.after(millis(7), [&] { fired = true; });
  dsm.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(dsm.now(), kTimeZero + millis(7));
}

TEST(SystemFacade, VersionString) {
  EXPECT_NE(std::string(version()).find("pardsm"), std::string::npos);
}

// ----------------------------------------------------------- analyzer
TEST(Analysis, PramRunIsEfficient) {
  SystemConfig config = pram_on_chain();
  System dsm(std::move(config));
  // Everyone writes each of its variables once.
  dsm.at(kTimeZero, [&] {
    for (ProcessId p = 0; p < static_cast<ProcessId>(dsm.process_count());
         ++p) {
      for (VarId x : dsm.distribution().per_process[
               static_cast<std::size_t>(p)]) {
        dsm.write(p, x, p * 100 + x, [] {});
      }
    }
  });
  dsm.run();
  const auto report = core::analyze_run(
      dsm.distribution(), dsm.observed_relevance(), dsm.stats().total());
  EXPECT_TRUE(report.efficient());
  EXPECT_EQ(report.vars_leaking_past_clique, 0u);
  EXPECT_NE(report.to_table().find("yes"), std::string::npos);
}

TEST(Analysis, NaiveCausalRunIsNotEfficient) {
  SystemConfig config = pram_on_chain();
  config.protocol = mcs::ProtocolKind::kCausalPartialNaive;
  System dsm(std::move(config));
  dsm.at(kTimeZero, [&] { dsm.write(0, 0, 1, [] {}); });
  dsm.run();
  const auto report = core::analyze_run(
      dsm.distribution(), dsm.observed_relevance(), dsm.stats().total());
  EXPECT_FALSE(report.efficient());
  EXPECT_GT(report.vars_leaking_past_clique, 0u);
}

TEST(Analysis, AdHocStaysWithinTheorem1Sets) {
  SystemConfig config = pram_on_chain();
  config.protocol = mcs::ProtocolKind::kCausalPartialAdHoc;
  System dsm(std::move(config));
  dsm.at(kTimeZero, [&] {
    for (ProcessId p = 0; p < static_cast<ProcessId>(dsm.process_count());
         ++p) {
      for (VarId x :
           dsm.distribution().per_process[static_cast<std::size_t>(p)]) {
        dsm.write(p, x, p * 100 + x, [] {});
      }
    }
  });
  dsm.run();
  const auto report = core::analyze_run(
      dsm.distribution(), dsm.observed_relevance(), dsm.stats().total());
  EXPECT_EQ(report.vars_leaking_past_relevant, 0u);
  // The chain hoop makes causal metadata travel beyond C(x) for x = 0.
  EXPECT_FALSE(report.efficient());
}

// ----------------------------------------------------- analytic model
TEST(Analysis, PredictPramMatchesMeasurement) {
  const auto dist = graph::topo::ring(6);
  const auto model = core::predict(mcs::ProtocolKind::kPramPartial, dist);
  // Ring: |C(x)| = 2, so 1 message of 24 control bytes per write.
  EXPECT_DOUBLE_EQ(model.messages_per_write, 1.0);
  EXPECT_DOUBLE_EQ(model.control_bytes_per_write, 24.0);
  EXPECT_DOUBLE_EQ(model.recipients_outside_clique, 0.0);

  // Measure: one write per (process, variable) pair.
  SystemConfig config;
  config.protocol = mcs::ProtocolKind::kPramPartial;
  config.distribution = dist;
  System dsm(std::move(config));
  std::size_t writes = 0;
  dsm.at(kTimeZero, [&] {
    for (ProcessId p = 0; p < 6; ++p) {
      for (VarId x :
           dsm.distribution().per_process[static_cast<std::size_t>(p)]) {
        dsm.write(p, x, p * 100 + x, [] {});
        ++writes;
      }
    }
  });
  dsm.run();
  const auto traffic = dsm.stats().total();
  EXPECT_DOUBLE_EQ(
      static_cast<double>(traffic.msgs_sent) / static_cast<double>(writes),
      model.messages_per_write);
  EXPECT_DOUBLE_EQ(static_cast<double>(traffic.control_bytes_sent) /
                       static_cast<double>(writes),
                   model.control_bytes_per_write);
}

TEST(Analysis, PredictCausalScalesWithN) {
  const auto small = core::predict(mcs::ProtocolKind::kCausalPartialNaive,
                                   graph::topo::ring(4));
  const auto large = core::predict(mcs::ProtocolKind::kCausalPartialNaive,
                                   graph::topo::ring(16));
  EXPECT_GT(large.messages_per_write, small.messages_per_write);
  EXPECT_GT(large.control_bytes_per_write, small.control_bytes_per_write);
  EXPECT_GT(large.recipients_outside_clique, 0.0);
}

TEST(Analysis, PredictCacheAndProcessorMatchMeasurement) {
  // One write per (variable, clique member): exactly the analytic model's
  // uniform-load assumption, so measured == predicted to the byte.
  const auto dist = graph::topo::ring(6);
  for (auto kind : {mcs::ProtocolKind::kCachePartial,
                    mcs::ProtocolKind::kProcessorPartial}) {
    const auto model = core::predict(kind, dist);

    SystemConfig config;
    config.protocol = kind;
    config.distribution = dist;
    System dsm(std::move(config));
    std::size_t writes = 0;
    dsm.at(kTimeZero, [&] {
      for (ProcessId p = 0; p < 6; ++p) {
        for (VarId x :
             dsm.distribution().per_process[static_cast<std::size_t>(p)]) {
          dsm.write(p, x, p * 100 + x, [] {});
          ++writes;
        }
      }
    });
    dsm.run();
    const auto traffic = dsm.stats().total();
    EXPECT_DOUBLE_EQ(
        static_cast<double>(traffic.msgs_sent) / static_cast<double>(writes),
        model.messages_per_write)
        << mcs::to_string(kind);
    EXPECT_DOUBLE_EQ(static_cast<double>(traffic.control_bytes_sent) /
                         static_cast<double>(writes),
                     model.control_bytes_per_write)
        << mcs::to_string(kind);
    EXPECT_DOUBLE_EQ(model.recipients_outside_clique, 0.0);
  }
}

TEST(Analysis, PredictAdHocMatchesMeasurement) {
  // The same uniform load as above, on hoop-rich distributions: every
  // write reaches R(x) \ {writer} and each recipient's dependency bytes
  // depend only on the (writer, recipient) pair, so the model is exact.
  for (const auto& dist :
       {graph::topo::ring(6), graph::topo::random_replication(8, 12, 3, 7)}) {
    const auto model =
        core::predict(mcs::ProtocolKind::kCausalPartialAdHoc, dist);

    SystemConfig config;
    config.protocol = mcs::ProtocolKind::kCausalPartialAdHoc;
    config.distribution = dist;
    System dsm(std::move(config));
    std::size_t writes = 0;
    dsm.at(kTimeZero, [&] {
      const auto& per_process = dsm.distribution().per_process;
      for (std::size_t p = 0; p < per_process.size(); ++p) {
        for (VarId x : per_process[p]) {
          dsm.write(static_cast<ProcessId>(p), x,
                    static_cast<Value>(p) * 100 + x, [] {});
          ++writes;
        }
      }
    });
    dsm.run();
    const auto traffic = dsm.stats().total();
    ASSERT_GT(writes, 0u);
    EXPECT_DOUBLE_EQ(
        static_cast<double>(traffic.msgs_sent) / static_cast<double>(writes),
        model.messages_per_write)
        << dist.name;
    EXPECT_DOUBLE_EQ(static_cast<double>(traffic.control_bytes_sent) /
                         static_cast<double>(writes),
                     model.control_bytes_per_write)
        << dist.name;
  }
}

TEST(Analysis, PredictAdHocBetweenPramAndNaive) {
  const auto dist = graph::topo::clusters(3, 3, /*cyclic=*/false);
  const auto pram = core::predict(mcs::ProtocolKind::kPramPartial, dist);
  const auto adhoc =
      core::predict(mcs::ProtocolKind::kCausalPartialAdHoc, dist);
  const auto naive =
      core::predict(mcs::ProtocolKind::kCausalPartialNaive, dist);
  EXPECT_LE(pram.messages_per_write, adhoc.messages_per_write);
  EXPECT_LE(adhoc.messages_per_write, naive.messages_per_write);
  EXPECT_LT(adhoc.control_bytes_per_write, naive.control_bytes_per_write);
}

}  // namespace
}  // namespace pardsm
