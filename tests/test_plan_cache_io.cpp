// Error paths of the plan-profile text format (ec/plan_cache_io) and of
// CodecService::warmup on hostile files: truncated, garbled, empty and
// binary-garbage profiles must fail cleanly (std::runtime_error, no crash),
// and a failed or partially-applicable warmup must never poison the plan
// cache — the service keeps compiling and serving afterwards.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "api/xorec.hpp"
#include "conformance/codec_conformance.hpp"
#include "ec/bitmatrix_codec_core.hpp"
#include "ec/plan_cache.hpp"
#include "ec/plan_cache_io.hpp"

using namespace xorec;
using xorec::conformance::all_but;

namespace {

std::string write_profile(const std::string& tag, const std::string& contents) {
  const std::string path = ::testing::TempDir() + "xorec_io_" + tag + ".profile";
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << contents;
  out.close();
  return path;
}

constexpr char kHeader[] = "xorec-plan-profile v1\n";

CodecService::Options isolated() {
  CodecService::Options opt;
  opt.shards = 2;
  opt.plan_cache = std::make_shared<ec::PlanCache>(0, 2);
  return opt;
}

}  // namespace

TEST(PlanCacheIo, MissingEmptyAndHeaderlessFilesFailCleanly) {
  EXPECT_THROW((void)ec::load_plan_profile(::testing::TempDir() + "xorec_io_nope"),
               std::runtime_error);
  EXPECT_THROW((void)ec::load_plan_profile(write_profile("empty", "")),
               std::runtime_error);
  EXPECT_THROW((void)ec::load_plan_profile(write_profile("noheader", "codec rs(6,3)\n")),
               std::runtime_error);
  EXPECT_THROW((void)ec::load_plan_profile(write_profile("wrongver",
                                                         "xorec-plan-profile v9\n")),
               std::runtime_error);
}

TEST(PlanCacheIo, GarbledRecordsFailCleanly) {
  const std::vector<std::pair<std::string, std::string>> cases{
      {"truncated-codec", std::string(kHeader) + "codec rs(6,3) fp 1 2\n"},
      {"missing-fp-tag", std::string(kHeader) + "codec rs(6,3) xp 1 2 3\n"},
      {"bad-fp-number", std::string(kHeader) + "codec rs(6,3) fp one 2 3\n"},
      {"unknown-record", std::string(kHeader) + "frobnicate 1 2 3\n"},
      {"orphan-pattern", std::string(kHeader) + "pattern 1 2 | 3\n"},
      {"pattern-junk-token",
       std::string(kHeader) + "codec rs(6,3) fp 1 2 3\npattern 1 x | 2\n"},
      {"pattern-negative",
       std::string(kHeader) + "codec rs(6,3) fp 1 2 3\npattern -1 | 2\n"},
      {"pattern-id-too-big",
       std::string(kHeader) + "codec rs(6,3) fp 1 2 3\npattern 4294967295 | 2\n"},
      {"pattern-id-overflow",
       std::string(kHeader) + "codec rs(6,3) fp 1 2 3\npattern 99999999999999999999 | 2\n"},
      {"binary-garbage", std::string(kHeader) + std::string("\x01\xff\x7f garbage \x00", 12)},
  };
  for (const auto& [tag, contents] : cases) {
    SCOPED_TRACE(tag);
    EXPECT_THROW((void)ec::load_plan_profile(write_profile(tag, contents)),
                 std::runtime_error);
  }
}

TEST(PlanCacheIo, HeaderOnlyAndCommentsLoadAsEmpty) {
  const ec::PlanProfile p = ec::load_plan_profile(
      write_profile("header-only", std::string(kHeader) + "# a comment\n\n"));
  EXPECT_TRUE(p.entries.empty());
  EXPECT_EQ(p.pattern_count(), 0u);
}

TEST(PlanCacheIo, SaveToUnwritablePathFailsCleanly) {
  ec::PlanProfile profile;
  profile.entries.push_back({"rs(6,3)", 1, 2, 3, {{0, UINT32_MAX, 1, 2}}});
  EXPECT_THROW(ec::save_plan_profile("/nonexistent-dir/xorec.profile", profile),
               std::runtime_error);
}

TEST(PlanCacheIo, RoundTripPreservesSeparatorsAndIds) {
  ec::PlanProfile profile;
  profile.entries.push_back(
      {"piggyback(6,3,2)", 7, 8, 9, {{0, UINT32_MAX, 1, 2, 3}, {6, UINT32_MAX, UINT32_MAX}}});
  const std::string path =
      write_profile("roundtrip", "");  // placeholder; save overwrites
  ec::save_plan_profile(path, profile);
  const ec::PlanProfile loaded = ec::load_plan_profile(path);
  ASSERT_EQ(loaded.entries.size(), 1u);
  EXPECT_EQ(loaded.entries[0].spec, "piggyback(6,3,2)");
  EXPECT_EQ(loaded.entries[0].matrix_fp, 7u);
  EXPECT_EQ(loaded.entries[0].patterns, profile.entries[0].patterns);
  EXPECT_EQ(loaded.pattern_count(), 2u);
}

// A corrupt profile must throw out of warmup() WITHOUT poisoning anything:
// the same service keeps compiling, serving and saving profiles afterwards,
// and the warm-rate window is not reset by the failed replay.
TEST(PlanCacheIo, FailedWarmupDoesNotPoisonTheService) {
  CodecService service(isolated());
  const ServiceHandle h = service.acquire("rs(6,3)");
  (void)h.plan_reconstruct(all_but(h.codec(), {0}), {0});
  const ServiceStats before = service.stats();

  EXPECT_THROW((void)service.warmup(write_profile(
                   "corrupt", std::string(kHeader) + "codec rs(6,3) fp bad\n")),
               std::runtime_error);

  // Window not reset: the pre-failure traffic is still in it.
  const ServiceStats after = service.stats();
  EXPECT_GE(after.warm_hits + after.warm_misses, before.warm_hits + before.warm_misses);
  EXPECT_GT(after.warm_hits + after.warm_misses, 0u);

  // The cache still compiles and serves new patterns.
  EXPECT_NO_THROW((void)h.plan_reconstruct(all_but(h.codec(), {1}), {1}));
  EXPECT_GT(h.codec().cached_program_count(), 0u);

  // And a save -> warmup round trip still works end to end.
  const std::string good = ::testing::TempDir() + "xorec_io_good.profile";
  EXPECT_GT(service.save_profile(good), 0u);
  CodecService fresh(isolated());
  const auto report = fresh.warmup(good);
  EXPECT_EQ(report.codecs, 1u);
  EXPECT_GT(report.patterns, 0u);
  std::remove(good.c_str());
}

// Regression: acquire("...@warmup=PATH") claims the path in warmed_paths_
// BEFORE running the replay, so a corrupt profile used to poison the path
// forever — acquire threw once, and every later acquire skipped the replay
// even after the file was fixed. The failed claim must be released.
TEST(PlanCacheIo, FailedInlineWarmupIsRetriedOnceTheProfileIsFixed) {
  const std::string path = write_profile(
      "poison", std::string(kHeader) + "codec rs(6,3) fp bad\n");
  CodecService service(isolated());
  const std::string spec = "rs(6,3)@warmup=" + path;

  // First acquire: the corrupt profile throws out of the inline replay.
  EXPECT_THROW((void)service.acquire(spec), std::runtime_error);

  // Fix the file in place. Before the fix, the path stayed claimed and this
  // replay never ran — the warm window showed zero replayed traffic.
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << kHeader << "codec rs(6,3) fp 1 2 3\npattern 0 | 1 2 3 4 5 6\n";
  }
  ServiceHandle h = service.acquire(spec);

  // The replay really happened: its pattern now serves warm.
  (void)h.plan_reconstruct({1, 2, 3, 4, 5, 6}, {0});
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.warm_hits, 0u);
  EXPECT_EQ(stats.warm_misses, 0u);

  // And the path is claimed now — a third acquire must not replay again
  // (the warm window keeps accumulating instead of resetting).
  (void)service.acquire(spec);
  EXPECT_GE(service.stats().warm_hits, stats.warm_hits);
  std::remove(path.c_str());
}

// Records that parse but no longer apply — unknown families, stale options,
// geometry-breaking pattern ids — are skipped, not fatal, and must not
// abort the rest of the replay.
TEST(PlanCacheIo, InapplicableRecordsAreSkippedNotFatal) {
  const std::string path = write_profile(
      "drift",
      std::string(kHeader) +
          "codec futurecode(9,9) fp 1 2 3\n"    // unknown family: skipped
          "pattern 1 | 0 2\n"
          "codec rs(6,3)@frob=1 fp 1 2 3\n"     // unknown option: skipped
          "pattern 1 | 0 2\n"
          "codec rs(6,3)@exec=jit fp 1 2 3\n"   // removed backend: skipped
          "pattern 1 | 0 2\n"
          "codec rs(6,3) fp 1 2 3\n"
          "pattern 42 | 0 1\n"                  // id beyond geometry: skipped
          "pattern 0 | 1 2 3 4 5 6\n"           // replayable
          "pattern 6 | |\n");                   // parity subset: replayable
  CodecService service(isolated());
  CodecService::WarmupReport report;
  ASSERT_NO_THROW(report = service.warmup(path));
  EXPECT_EQ(report.codecs, 1u);       // only the real rs(6,3) pool
  EXPECT_EQ(report.skipped, 4u);      // three drifted entries + the bad id
  EXPECT_GE(report.patterns, 2u);
  EXPECT_GT(report.compiled, 0u);

  // The replayed patterns serve warm.
  const ServiceHandle h = service.acquire("rs(6,3)");
  (void)h.plan_reconstruct({1, 2, 3, 4, 5, 6}, {0});
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.warm_hits, 0u);
  EXPECT_EQ(stats.warm_misses, 0u);
}

// Warmup with a pattern that names a pathological but parseable codec spec
// must not attempt an absurd allocation or crash; the registry bounds every
// family's geometry.
TEST(PlanCacheIo, OversizedSpecsInProfilesAreRejectedNotFatal) {
  const std::string path = write_profile(
      "oversized", std::string(kHeader) +
                       "codec rs(1000000,4) fp 1 2 3\npattern 1 | 0 2\n"
                       "codec evenodd(100000) fp 1 2 3\npattern 1 | 0 2\n"
                       "codec sparse(6,3,101,1) fp 1 2 3\npattern 1 | 0 2\n"
                       "codec piggyback(6,9,9) fp 1 2 3\npattern 1 | 0 2\n");
  CodecService service(isolated());
  CodecService::WarmupReport report;
  ASSERT_NO_THROW(report = service.warmup(path));
  EXPECT_EQ(report.codecs, 0u);
  EXPECT_EQ(report.skipped, 4u);
  EXPECT_EQ(report.patterns, 0u);
}
