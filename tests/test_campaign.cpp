// Tests for the scenario-campaign subsystem (src/campaign/): grid
// expansion + admissibility pre-screening, the canonical artifact
// encoding, the truncation-tolerant checkpoint manifest, and the
// kill/resume byte-identity contract of the runner.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "campaign/checkpoint.hpp"
#include "campaign/runner.hpp"
#include "scratch_dir.hpp"

namespace dpbyz::campaign {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream blob;
  blob << in.rdbuf();
  return blob.str();
}

void write_file(const std::string& path, const std::string& blob) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << blob;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing_support::scratch_dir() + "campaign_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// A grid small enough for unit tests but touching every subsystem:
/// 2 GARs x 3 attacks (incl. an adaptive one) x 2 eps = 12 cells.
GridSpec small_spec() {
  GridSpec spec;
  spec.base.steps = 40;
  spec.base.eval_every = 40;
  spec.gars = {"mda", "median"};
  spec.attacks = {"none", "little:1.5", "adaptive_alie"};
  spec.dp_eps = {0.0, 0.2};
  spec.seeds = 2;
  return spec;
}

CellArtifact sample_artifact() {
  CellArtifact a;
  a.cell = 3;
  a.id = "mda/little:1.5/eps=0.2/full/flat/off/off/prune=off";
  a.gar = "mda";
  a.attack = "little:1.5";
  a.eps = 0.2;
  a.participation = "full";
  a.topology = "flat";
  a.channel = "off";
  a.churn = "off";
  a.prune = "off";
  a.seeds = 2;
  a.final_acc_mean = 0.9167608286252353;
  a.final_acc_std = 1.0 / 3.0;
  a.final_loss_mean = 0.1;
  a.final_loss_std = 5e-324;  // denormal min: stresses the formatter
  a.min_loss_mean = 0.05;
  a.mi_auc = 0.5;
  a.inv_rel_error = std::nan("");
  a.inv_label_acc = 1.0;
  return a;
}

TEST(CampaignArtifact, MetricFormattingRoundTripsExactly) {
  for (double v : {0.2, 1.0 / 3.0, 1e-17, 5e-324, -1.5, 0.0, 1e300,
                   0.1 + 0.2 /* 0.30000000000000004 */}) {
    const std::string s = format_metric(v);
    EXPECT_EQ(parse_metric(s), v) << s;
    EXPECT_EQ(format_metric(parse_metric(s)), s) << "format not canonical: " << s;
  }
  EXPECT_EQ(format_metric(0.2), "0.2");  // shortest form, not 17 digits
  EXPECT_TRUE(std::isnan(parse_metric(format_metric(std::nan("")))));
  EXPECT_EQ(format_metric(std::nan("")), "nan");
}

TEST(CampaignArtifact, CsvRowRoundTripsByteForByte) {
  const CellArtifact a = sample_artifact();
  const auto cells = csv_cells(a);
  ASSERT_EQ(cells.size(), csv_header().size());
  const CellArtifact back = from_csv_cells(cells);
  // NaN breaks operator==; byte equality of the re-encoded row is the
  // contract the resume machinery actually relies on.
  EXPECT_EQ(csv_cells(back), cells);
  EXPECT_THROW(from_csv_cells({"1", "2"}), std::invalid_argument);
}

TEST(CampaignArtifact, SanitizeKeepsFieldsCommaAndNewlineFree) {
  EXPECT_EQ(sanitize_field("a,b\nc\"d\\e"), "a;b;c;d;e");
}

TEST(CampaignGrid, ExpandsStablyAndPreScreensAdmissibility) {
  const GridSpec spec = small_spec();
  const auto cells = expand_grid(spec);
  ASSERT_EQ(cells.size(), 12u);
  for (size_t i = 0; i < cells.size(); ++i) EXPECT_EQ(cells[i].index, i);
  // Last axis (here: eps) varies fastest; first axis slowest.
  EXPECT_EQ(cells[0].gar, "mda");
  EXPECT_EQ(cells[0].attack, "none");
  EXPECT_DOUBLE_EQ(cells[0].eps, 0.0);
  EXPECT_DOUBLE_EQ(cells[1].eps, 0.2);
  EXPECT_EQ(cells[6].gar, "median");
  // Everything in this grid is admissible (mda/median hold at (11, 5)).
  for (const auto& cell : cells) EXPECT_TRUE(cell.admissible()) << cell.id;
  // Materialized configs carry the axis values.
  EXPECT_FALSE(cells[0].config.attack_enabled);
  EXPECT_FALSE(cells[0].config.dp_enabled);
  EXPECT_TRUE(cells[3].config.attack_enabled);
  EXPECT_EQ(cells[3].config.attack, "little");
  EXPECT_DOUBLE_EQ(cells[3].config.attack_nu, 1.5);
  EXPECT_TRUE(cells[3].config.dp_enabled);
  EXPECT_DOUBLE_EQ(cells[3].config.epsilon, 0.2);
}

TEST(CampaignGrid, InadmissibleCombinationsBecomeSkipReasons) {
  GridSpec spec = small_spec();
  spec.gars = {"krum", "mda"};  // krum needs n >= 2f + 3: fails at (11, 5)
  const auto cells = expand_grid(spec);
  size_t skipped = 0;
  for (const auto& cell : cells) {
    if (cell.gar == "krum") {
      EXPECT_FALSE(cell.admissible());
      EXPECT_NE(cell.skip_reason.find("Krum"), std::string::npos);
      EXPECT_EQ(cell.skip_reason.find(','), std::string::npos);  // CSV-safe
      ++skipped;
    } else {
      EXPECT_TRUE(cell.admissible());
    }
  }
  EXPECT_EQ(skipped, 6u);
}

TEST(CampaignGrid, ParsesTopologyAndParticipationAxes) {
  GridSpec spec = small_spec();
  spec.gars = {"mda"};
  spec.attacks = {"none"};
  spec.dp_eps = {0.0};
  spec.participation = {"full", "iid:0.8", "stragglers:2x3"};
  spec.topologies = {"flat", "shards:3", "tree:2,3"};
  const auto cells = expand_grid(spec);
  ASSERT_EQ(cells.size(), 9u);
  EXPECT_EQ(cells[2].topology, "tree:2x3");  // canonicalized from "2,3"
  EXPECT_EQ(cells[2].config.tree_levels, 2u);
  EXPECT_EQ(cells[2].config.tree_branch, 3u);
  // shards:S runs as the one-level tree and is screened as one: its
  // skip reason names the failing stage (mda cannot host f_child = 2 in
  // 3 rows).
  EXPECT_EQ(cells[1].topology, "shards:3");
  EXPECT_EQ(cells[1].config.tree_levels, 1u);
  EXPECT_EQ(cells[1].config.tree_branch, 3u);
  EXPECT_FALSE(cells[1].admissible());
  EXPECT_EQ(cells[1].skip_reason.rfind(
                "HierarchicalAggregator: node root level 1; child 0 (rows 3; f_child 2", 0),
            0u)
      << cells[1].skip_reason;
  EXPECT_EQ(cells[3].config.participation, "iid");
  EXPECT_DOUBLE_EQ(cells[3].config.participation_prob, 0.8);
  EXPECT_EQ(cells[6].config.participation, "stragglers");
  EXPECT_EQ(cells[6].config.num_stragglers, 2u);
  EXPECT_EQ(cells[6].config.straggler_period, 3u);

  spec.topologies = {"pyramid:3"};
  EXPECT_THROW(expand_grid(spec), std::invalid_argument);
  spec.topologies = {"flat"};
  spec.participation = {"sometimes"};
  EXPECT_THROW(expand_grid(spec), std::invalid_argument);
}

TEST(CampaignGrid, ParsesChannelAndChurnAxes) {
  GridSpec spec = small_spec();
  spec.gars = {"average"};  // unconstrained at every tree node split
  spec.attacks = {"none"};
  spec.dp_eps = {0.0};
  spec.topologies = {"flat", "tree:2x3"};
  spec.channels = {"off", "lossy:0.05x0.01x0.1"};
  spec.churn = {"off", "epoch:5x0.6x0.1"};
  const auto cells = expand_grid(spec);
  ASSERT_EQ(cells.size(), 8u);

  // flat + off/off: the plain cell, untouched by the new axes.
  EXPECT_TRUE(cells[0].admissible()) << cells[0].skip_reason;
  EXPECT_EQ(cells[0].config.channel, "off");
  EXPECT_EQ(cells[0].config.churn, "off");
  EXPECT_EQ(cells[0].config.wire, "off");

  // flat + churn: admissible; the config carries the epoch knobs.
  EXPECT_TRUE(cells[1].admissible()) << cells[1].skip_reason;
  EXPECT_EQ(cells[1].config.churn, "epoch");
  EXPECT_EQ(cells[1].config.churn_epoch_rounds, 5u);
  EXPECT_DOUBLE_EQ(cells[1].config.churn_join_prob, 0.6);
  EXPECT_DOUBLE_EQ(cells[1].config.churn_leave_prob, 0.1);
  EXPECT_NE(cells[1].id.find("/epoch:5x0.6x0.1/"), std::string::npos);

  // flat + lossy: pre-screened out — there is no tree wire to fault.
  EXPECT_FALSE(cells[2].admissible());
  EXPECT_NE(cells[2].skip_reason.find("tree_levels"), std::string::npos);

  // tree + lossy: admissible; a bare base gets the raw64 wire format.
  EXPECT_TRUE(cells[6].admissible()) << cells[6].skip_reason;
  EXPECT_EQ(cells[6].config.channel, "lossy");
  EXPECT_DOUBLE_EQ(cells[6].config.channel_drop, 0.05);
  EXPECT_DOUBLE_EQ(cells[6].config.channel_corrupt, 0.01);
  EXPECT_DOUBLE_EQ(cells[6].config.channel_reorder, 0.1);
  EXPECT_EQ(cells[6].config.wire, "raw64");

  spec.channels = {"noisy:0.1"};
  EXPECT_THROW(expand_grid(spec), std::invalid_argument);
  spec.channels = {"off"};
  spec.churn = {"epoch:5x0.6"};
  EXPECT_THROW(expand_grid(spec), std::invalid_argument);
}

TEST(CampaignGrid, IntegerFieldsAcceptOnlyDecimalCounts) {
  GridSpec spec = small_spec();
  spec.gars = {"average"};
  spec.attacks = {"none"};
  spec.dp_eps = {0.0};
  // Each value must fail at expansion with an error naming it: no bare
  // "stoull", and no negative count wrapping to 2^64 - k.
  const auto expect_rejected = [&spec](const std::string& value) {
    try {
      (void)expand_grid(spec);
      ADD_FAILURE() << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'" + value + "'"), std::string::npos)
          << e.what();
    }
  };
  for (const std::string value :
       {"shards:abc", "shards:-1", "shards:+2", "shards: 3", "tree:ax3", "tree:1x-3",
        "tree:2x99999999999999999999"}) {
    spec.topologies = {value};
    expect_rejected(value);
  }
  spec.topologies = {"flat"};
  for (const std::string value : {"stragglers:x2", "stragglers:2x-1", "stragglers:-2"}) {
    spec.participation = {value};
    expect_rejected(value);
  }
  spec.participation = {"full"};
  for (const std::string value : {"epoch:zzx0.5x0.1", "epoch:-5x0.5x0.1"}) {
    spec.churn = {value};
    expect_rejected(value);
  }
  spec.churn = {"off"};
  // An epsilon below 0 or not finite is malformed too (0 means DP off),
  // not a cell that silently runs without DP under its label.
  for (const double eps : {-0.2, std::nan(""), HUGE_VAL}) {
    spec.dp_eps = {0.0, eps};
    expect_rejected(format_metric(eps));
  }
  spec.dp_eps = {0.0};

  // Well-formed counts still parse.
  spec.churn = {"epoch:5x0.5x0.1"};
  spec.participation = {"stragglers:2x3"};
  spec.topologies = {"tree:1x3"};
  const auto cells = expand_grid(spec);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].config.churn_epoch_rounds, 5u);
  EXPECT_EQ(cells[0].config.num_stragglers, 2u);
  EXPECT_EQ(cells[0].config.straggler_period, 3u);
  EXPECT_EQ(cells[0].config.tree_branch, 3u);
}

TEST(CampaignGrid, SignatureTracksEveryAxis) {
  const GridSpec a = small_spec();
  GridSpec b = small_spec();
  EXPECT_EQ(a.signature(), b.signature());
  b.dp_eps = {0.0, 0.3};
  EXPECT_NE(a.signature(), b.signature());
  b = small_spec();
  b.base.steps += 1;
  EXPECT_NE(a.signature(), b.signature());
  b = small_spec();
  b.seeds += 1;
  EXPECT_NE(a.signature(), b.signature());
  b = small_spec();
  b.channels = {"off", "lossy:0.05x0.01x0.1"};
  EXPECT_NE(a.signature(), b.signature());
  b = small_spec();
  b.churn = {"epoch:5x0.6x0.1"};
  EXPECT_NE(a.signature(), b.signature());
  b = small_spec();
  b.base.churn_seed = 9;  // reseeded churn = different trajectories
  EXPECT_NE(a.signature(), b.signature());
  b = small_spec();
  b.base.worker_momentum = 0.5;
  EXPECT_NE(a.signature(), b.signature());
  b = small_spec();
  b.base.dropout_prob = 0.1;
  EXPECT_NE(a.signature(), b.signature());
  b = small_spec();
  b.base.channel_seed = 7;
  EXPECT_NE(a.signature(), b.signature());
}

TEST(CampaignManifest, SaveLoadRoundTripsAndMissingFileIsEmpty) {
  const std::string dir = fresh_dir("manifest");
  const std::string path = dir + "/manifest.bin";
  EXPECT_TRUE(load_manifest(path).completed.empty());

  Manifest m;
  m.signature = "sig-1";
  const CellArtifact a = sample_artifact();
  m.completed[a.cell] = a;
  save_manifest(path, m);
  const Manifest back = load_manifest(path);
  EXPECT_EQ(back.signature, "sig-1");
  ASSERT_EQ(back.completed.size(), 1u);
  EXPECT_EQ(csv_cells(back.completed.at(a.cell)), csv_cells(a));
  // Saving is atomic: no stale tmp file left behind.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(CampaignManifest, TruncatedTailIsDroppedNotFatal) {
  const std::string dir = fresh_dir("truncated");
  const std::string path = dir + "/manifest.bin";
  Manifest m;
  m.signature = "sig-1";
  CellArtifact a = sample_artifact();
  CellArtifact b = sample_artifact();
  b.cell = 7;
  m.completed[a.cell] = a;
  m.completed[b.cell] = b;
  save_manifest(path, m);

  // Simulate a SIGKILL mid-write: chop the file inside the last row.
  const std::string blob = read_file(path);
  write_file(path, blob.substr(0, blob.size() - 10));
  const Manifest back = load_manifest(path);
  EXPECT_EQ(back.signature, "sig-1");
  ASSERT_EQ(back.completed.size(), 1u);  // torn row dropped, prefix kept
  EXPECT_EQ(back.completed.begin()->first, a.cell);

  // A non-manifest file is loudly rejected, not silently emptied.
  write_file(path, "not,a,manifest\n1,2,3\n");
  EXPECT_THROW(load_manifest(path), std::runtime_error);
}

TEST(CampaignResume, KilledAndResumedCampaignIsByteIdentical) {
  // The PR's core contract: run the grid straight through in one
  // directory; in another, stop after 3 cells (the kill), corrupt the
  // manifest tail (the torn write), resume twice; the final artifacts
  // must match byte for byte.
  const GridSpec spec = small_spec();
  CampaignOptions options;
  options.privacy_samples = 50;

  const std::string straight = fresh_dir("straight");
  options.out_dir = straight;
  const CampaignReport full = run_campaign(spec, options);
  EXPECT_TRUE(full.complete);
  EXPECT_EQ(full.ran, 12u);
  EXPECT_EQ(full.resumed, 0u);

  options.out_dir = fresh_dir("killed");
  CampaignOptions slice = options;
  slice.max_cells = 3;
  const CampaignReport first = run_campaign(spec, slice);
  EXPECT_FALSE(first.complete);
  EXPECT_EQ(first.ran, 3u);
  EXPECT_FALSE(std::filesystem::exists(options.out_dir + "/campaign.csv"));
  size_t pending = 0;
  for (const auto& cell : first.cells)
    if (cell.skip_reason == "pending") ++pending;
  EXPECT_EQ(pending, 9u);

  // Torn write on top of the kill: drop the final byte of the manifest
  // (its last record loses a byte of its CRC and with it durability).
  const std::string manifest_path = options.out_dir + "/manifest.bin";
  const std::string blob = read_file(manifest_path);
  write_file(manifest_path, blob.substr(0, blob.size() - 1));

  const CampaignReport second = run_campaign(spec, slice);
  EXPECT_FALSE(second.complete);
  EXPECT_EQ(second.resumed, 2u);  // the torn third cell was re-run
  const CampaignReport third = run_campaign(spec, options);
  EXPECT_TRUE(third.complete);
  EXPECT_EQ(third.resumed + third.ran, 12u);

  EXPECT_EQ(read_file(options.out_dir + "/campaign.csv"),
            read_file(straight + "/campaign.csv"));
  EXPECT_EQ(read_file(options.out_dir + "/campaign.json"),
            read_file(straight + "/campaign.json"));
}

TEST(CampaignResume, ManifestFromDifferentGridIsRejected) {
  GridSpec spec = small_spec();
  spec.gars = {"median"};
  spec.attacks = {"none"};
  spec.dp_eps = {0.0};
  CampaignOptions options;
  options.out_dir = fresh_dir("mixed");
  options.privacy_samples = 50;
  (void)run_campaign(spec, options);
  spec.dp_eps = {0.0, 0.2};  // different grid, same directory
  EXPECT_THROW(run_campaign(spec, options), std::invalid_argument);
}

TEST(CampaignResume, ManifestWithTheRetiredSchemaIsRejected) {
  // A campaign-v3 manifest fingerprinted a hand-kept subset of the base
  // knobs (it missed worker_momentum, for one); resuming it into the
  // campaign-v4 grid must refuse rather than mix the two schemas.
  GridSpec spec = small_spec();
  spec.gars = {"median"};
  spec.attacks = {"none"};
  spec.dp_eps = {0.0};
  std::string old_signature = spec.signature();
  ASSERT_EQ(old_signature.rfind("campaign-v4;", 0), 0u) << old_signature;
  old_signature.replace(0, std::string("campaign-v4").size(), "campaign-v3");

  CampaignOptions options;
  options.out_dir = fresh_dir("v3");
  options.privacy_samples = 50;
  Manifest m;
  m.signature = old_signature;
  save_manifest(options.out_dir + "/manifest.bin", m);
  try {
    (void)run_campaign(spec, options);
    FAIL() << "a campaign-v3 manifest was resumed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("belongs to a different grid"), std::string::npos)
        << e.what();
  }
}

TEST(CampaignRunner, SkippedCellsLandInArtifactsWithReasons) {
  GridSpec spec = small_spec();
  spec.gars = {"krum", "median"};
  spec.attacks = {"none"};
  spec.dp_eps = {0.0};
  spec.base.steps = 20;
  spec.base.eval_every = 20;
  CampaignOptions options;
  options.out_dir = fresh_dir("skips");
  options.privacy_samples = 50;
  const CampaignReport report = run_campaign(spec, options);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.total_cells, 2u);
  EXPECT_EQ(report.admissible, 1u);
  EXPECT_EQ(report.skipped, 1u);
  const auto cells = read_csv(report.csv_path);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_NE(cells[0].skip_reason.find("Krum"), std::string::npos);
  EXPECT_TRUE(std::isnan(cells[0].final_acc_mean));
  EXPECT_TRUE(cells[1].skip_reason.empty());
  EXPECT_GT(cells[1].final_acc_mean, 0.5);
  // Measured privacy columns are populated for the run cell.
  EXPECT_GE(cells[1].mi_auc, 0.0);
  EXPECT_EQ(cells[1].inv_rel_error, 0.0);  // eps = 0: exact inversion
  EXPECT_EQ(cells[1].inv_label_acc, 1.0);
}

}  // namespace
}  // namespace dpbyz::campaign
