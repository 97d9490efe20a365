// psj_cli — command-line front end to the library.
//
// Subcommands:
//   generate   create a synthetic map pair and persist stores + trees
//   inspect    print Table 1-style statistics of a persisted dataset
//   join       run a parallel spatial join over a persisted dataset
//   window     run a parallel window query over one map
//   knn        run a k-nearest-neighbor query over one map
//   serve      drive the batched query service at a fixed offered load
//   report     reproduce the paper's figures/tables, diff against goldens
//
// Datasets are addressed by a path prefix: generate writes
//   <prefix>_store_{r,s}.bin  and  <prefix>_tree_{r,s}.pf
//
// Examples:
//   psj_cli generate --prefix=/tmp/ca --objects=30000 --seed=7
//   psj_cli inspect  --prefix=/tmp/ca
//   psj_cli join     --prefix=/tmp/ca --variant=gd --processors=8
//   psj_cli window   --prefix=/tmp/ca --rect=0.2,0.2,0.6,0.6
//   psj_cli knn      --prefix=/tmp/ca --point=0.5,0.5 --k=10
//   psj_cli report   --check --scale=0.05
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "check/access_registry.h"
#include "core/experiment.h"
#include "core/parallel_join.h"
#include "core/parallel_window_query.h"
#include "data/generator.h"
#include "data/map_builder.h"
#include "join/sequential_join.h"
#include "native/native_join.h"
#include "native/partition_join.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/reporter.h"
#include "report/figure_registry.h"
#include "report/golden_diff.h"
#include "report/markdown_report.h"
#include "report/serve_figure.h"
#include "report/speedup_profiler.h"
#include "serve/load_gen.h"
#include "storage/page_file.h"
#include "trace/chrome_trace.h"
#include "trace/flame.h"
#include "trace/timeline.h"
#include "trace/trace_sink.h"
#include "util/json_writer.h"
#include "util/string_util.h"

namespace psj {
namespace {

// Parses all of `text` as a base-10 int.
bool ParseInt(const char* text, int* out) {
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < INT_MIN ||
      value > INT_MAX) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

// Parses all of `text` as a finite double.
bool ParseDouble(const char* text, double* out) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

enum class FlagKind { kString, kInt, kDouble, kBool };

// One flag a subcommand reads, and how its value must parse.
struct FlagSpec {
  const char* name;
  FlagKind kind;
};

// Checks every argument after the subcommand: each must be one of the
// subcommand's `specs` written "--name=value" (a bool may be bare), and a
// number must parse whole. Prints the first bad argument and returns false,
// so a misspelt flag is an error, not a silent default.
bool CheckFlags(int argc, char** argv, std::initializer_list<FlagSpec> specs) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "error: unexpected argument '%s' for '%s'\n",
                   arg.c_str(), argv[1]);
      return false;
    }
    const size_t eq = arg.find('=');
    const std::string name =
        arg.substr(2, eq == std::string::npos ? std::string::npos : eq - 2);
    const FlagSpec* spec = nullptr;
    for (const FlagSpec& candidate : specs) {
      if (name == candidate.name) {
        spec = &candidate;
        break;
      }
    }
    if (spec == nullptr) {
      std::fprintf(stderr, "error: unknown flag '--%s' for '%s'\n",
                   name.c_str(), argv[1]);
      return false;
    }
    if (eq == std::string::npos) {
      if (spec->kind != FlagKind::kBool) {
        std::fprintf(stderr, "error: flag --%s needs a value (--%s=...)\n",
                     name.c_str(), name.c_str());
        return false;
      }
      continue;
    }
    const char* value = argv[i] + eq + 1;
    int int_value = 0;
    double double_value = 0.0;
    const bool is_double = spec->kind == FlagKind::kDouble;
    if (spec->kind != FlagKind::kString &&
        !(is_double ? ParseDouble(value, &double_value)
                    : ParseInt(value, &int_value))) {
      std::fprintf(stderr, "error: flag --%s expects %s, got '%s'\n",
                   name.c_str(), is_double ? "a number" : "an integer", value);
      return false;
    }
  }
  return true;
}

const char* FlagValue(int argc, char** argv, const char* key) {
  const std::string prefix = std::string("--") + key + "=";
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return nullptr;
}

// The typed readers below run after CheckFlags(), so a present value
// parses.
int IntFlag(int argc, char** argv, const char* key, int fallback) {
  const char* value = FlagValue(argc, argv, key);
  int result = fallback;
  if (value != nullptr) {
    ParseInt(value, &result);
  }
  return result;
}

double DoubleFlag(int argc, char** argv, const char* key, double fallback) {
  const char* value = FlagValue(argc, argv, key);
  double result = fallback;
  if (value != nullptr) {
    ParseDouble(value, &result);
  }
  return result;
}

std::string StringFlag(int argc, char** argv, const char* key,
                       const std::string& fallback) {
  const char* value = FlagValue(argc, argv, key);
  return value != nullptr ? value : fallback;
}

// True for bare "--key" or "--key=<nonzero>".
bool BoolFlag(int argc, char** argv, const char* key) {
  const std::string bare = std::string("--") + key;
  for (int i = 2; i < argc; ++i) {
    if (bare == argv[i]) {
      return true;
    }
  }
  return IntFlag(argc, argv, key, 0) != 0;
}

// Parses "a,b,c,d" into doubles; returns false on malformed input.
bool ParseDoubles(const std::string& text, size_t count, double* out) {
  const auto fields = SplitString(text, ',');
  if (fields.size() != count) {
    return false;
  }
  for (size_t i = 0; i < count; ++i) {
    if (!ParseDouble(fields[i].c_str(), &out[i])) {
      return false;
    }
  }
  return true;
}

struct Dataset {
  ObjectStore store_r;
  ObjectStore store_s;
  RStarTree tree_r;
  RStarTree tree_s;
};

std::optional<Dataset> LoadDataset(const std::string& prefix) {
  auto store_r = ObjectStore::LoadFromFile(prefix + "_store_r.bin");
  auto store_s = ObjectStore::LoadFromFile(prefix + "_store_s.bin");
  auto file_r = PageFile::LoadFromFile(prefix + "_tree_r.pf");
  auto file_s = PageFile::LoadFromFile(prefix + "_tree_s.pf");
  // The first failure names its file and why (missing, or Corruption).
  for (const Status& status : {store_r.status(), store_s.status(),
                               file_r.status(), file_s.status()}) {
    if (!status.ok()) {
      std::fprintf(stderr,
                   "error: cannot load dataset at prefix '%s': %s (run "
                   "'psj_cli generate --prefix=%s' first)\n",
                   prefix.c_str(), status.ToString().c_str(),
                   prefix.c_str());
      return std::nullopt;
    }
  }
  auto tree_r = RStarTree::LoadFromPageFile(*file_r);
  auto tree_s = RStarTree::LoadFromPageFile(*file_s);
  for (const Status& status : {tree_r.status(), tree_s.status()}) {
    if (!status.ok()) {
      std::fprintf(stderr, "error: corrupt tree files at prefix '%s': %s\n",
                   prefix.c_str(), status.ToString().c_str());
      return std::nullopt;
    }
  }
  for (const Status& status : {CheckTreeMatchesStore(*tree_r, *store_r),
                               CheckTreeMatchesStore(*tree_s, *store_s)}) {
    if (!status.ok()) {
      std::fprintf(stderr, "error: mismatched dataset at prefix '%s': %s\n",
                   prefix.c_str(), status.ToString().c_str());
      return std::nullopt;
    }
  }
  return Dataset{std::move(store_r).value(), std::move(store_s).value(),
                 std::move(tree_r).value(), std::move(tree_s).value()};
}

int CmdGenerate(int argc, char** argv) {
  if (!CheckFlags(argc, argv,
                  {{"prefix", FlagKind::kString},
                   {"objects", FlagKind::kInt},
                   {"seed", FlagKind::kInt}})) {
    return 2;
  }
  const std::string prefix = StringFlag(argc, argv, "prefix", "");
  if (prefix.empty()) {
    std::fprintf(stderr, "error: --prefix=PATH is required\n");
    return 2;
  }
  const int objects = IntFlag(argc, argv, "objects", 30'000);
  const uint64_t seed =
      static_cast<uint64_t>(IntFlag(argc, argv, "seed", 2026));

  std::printf("generating %d + %d objects (seed %llu)...\n", objects,
              objects, static_cast<unsigned long long>(seed));
  const Geography geo = Geography::Generate(seed, 80);
  StreetsSpec streets;
  streets.num_objects = objects;
  streets.seed = seed + 1;
  MixedSpec mixed;
  mixed.num_objects = objects;
  mixed.seed = seed + 2;
  const ObjectStore store_r(GenerateStreetsMap(geo, streets));
  const ObjectStore store_s(GenerateMixedMap(geo, mixed));
  std::printf("building R*-trees...\n");
  const RStarTree tree_r = BuildTreeFromObjects(1, store_r.objects());
  const RStarTree tree_s = BuildTreeFromObjects(2, store_s.objects());

  PageFile file_r(tree_r.tree_id());
  PageFile file_s(tree_s.tree_id());
  Status status = store_r.SaveToFile(prefix + "_store_r.bin");
  if (status.ok()) status = store_s.SaveToFile(prefix + "_store_s.bin");
  if (status.ok()) status = tree_r.PackToPageFile(&file_r);
  if (status.ok()) status = tree_s.PackToPageFile(&file_s);
  if (status.ok()) status = file_r.SaveToFile(prefix + "_tree_r.pf");
  if (status.ok()) status = file_s.SaveToFile(prefix + "_tree_s.pf");
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s_{store,tree}_{r,s}\n", prefix.c_str());
  return 0;
}

void PrintTreeStats(const char* name, const RStarTree& tree) {
  const RTreeShapeStats stats = tree.ComputeShapeStats();
  std::printf("%s: height %d, %s data entries, %s data pages, %s directory "
              "pages, %.0f%% leaf fill\n",
              name, stats.height,
              FormatWithCommas(stats.num_data_entries).c_str(),
              FormatWithCommas(stats.num_data_pages).c_str(),
              FormatWithCommas(stats.num_dir_pages).c_str(),
              stats.avg_data_fill * 100.0);
}

int CmdInspect(int argc, char** argv) {
  if (!CheckFlags(argc, argv, {{"prefix", FlagKind::kString}})) {
    return 2;
  }
  auto dataset = LoadDataset(StringFlag(argc, argv, "prefix", ""));
  if (!dataset.has_value()) {
    return 1;
  }
  std::printf("map r: %zu objects; map s: %zu objects\n",
              dataset->store_r.size(), dataset->store_s.size());
  PrintTreeStats("tree r", dataset->tree_r);
  PrintTreeStats("tree s", dataset->tree_s);
  return 0;
}

ParallelJoinConfig JoinConfigFromFlags(int argc, char** argv, bool* ok) {
  *ok = true;
  ParallelJoinConfig config = ParallelJoinConfig::Gd();
  const std::string variant = StringFlag(argc, argv, "variant", "gd");
  if (variant == "lsr") {
    config = ParallelJoinConfig::Lsr();
  } else if (variant == "gsrr") {
    config = ParallelJoinConfig::Gsrr();
  } else if (variant == "gd") {
    config = ParallelJoinConfig::Gd();
  } else if (variant == "sn") {
    config = ParallelJoinConfig::Gd();
    config.buffer_type = BufferType::kSharedNothing;
  } else {
    std::fprintf(stderr, "error: unknown --variant=%s "
                         "(lsr|gsrr|gd|sn)\n", variant.c_str());
    *ok = false;
  }
  config.reassignment = ReassignmentLevel::kAllLevels;
  const std::string reassign = StringFlag(argc, argv, "reassign", "all");
  if (reassign == "none") {
    config.reassignment = ReassignmentLevel::kNone;
  } else if (reassign == "root") {
    config.reassignment = ReassignmentLevel::kRootLevel;
  }
  if (StringFlag(argc, argv, "placement", "modulo") == "hilbert") {
    config.placement = PagePlacement::kHilbertStriping;
  }
  config.use_second_filter =
      IntFlag(argc, argv, "second-filter", 0) != 0;
  config.num_processors = IntFlag(argc, argv, "processors", 8);
  config.num_disks = IntFlag(argc, argv, "disks", config.num_processors);
  config.total_buffer_pages =
      static_cast<size_t>(IntFlag(argc, argv, "buffer", 800));
  return config;
}

// --sweep=1,2,4,8 runs the join once per processor count, all simulations
// dispatched concurrently through the ExperimentDriver (--jobs=N limits the
// host threads; 0 = one per hardware thread).
int RunJoinSweep(const ParallelSpatialJoin& join,
                 const ParallelJoinConfig& base, const std::string& sweep,
                 int jobs, bool as_json) {
  std::vector<ParallelJoinConfig> configs;
  for (const std::string& field : SplitString(sweep, ',')) {
    int n = 0;
    if (!ParseInt(field.c_str(), &n) || n <= 0) {
      std::fprintf(stderr, "error: bad --sweep entry '%s'\n", field.c_str());
      return 2;
    }
    ParallelJoinConfig config = base;
    config.num_processors = n;
    config.num_disks = n;
    configs.push_back(config);
  }
  const ExperimentDriver driver(jobs);
  if (!as_json) {
    std::printf("sweep: %zu runs on %d host threads\n\n", configs.size(),
                driver.num_threads());
  }
  const auto results = driver.RunAll(join, configs);
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      std::fprintf(stderr, "error: run %zu: %s\n", i,
                   results[i].status().ToString().c_str());
      return 1;
    }
  }
  if (as_json) {
    JsonWriter out;
    out.BeginArray();
    for (size_t i = 0; i < results.size(); ++i) {
      out.BeginObject();
      out.Key("processors");
      out.Int(configs[i].num_processors);
      out.Key("disks");
      out.Int(configs[i].num_disks);
      out.Key("stats");
      results[i]->stats.WriteJson(out);
      out.EndObject();
    }
    out.EndArray();
    std::printf("%s\n", out.str().c_str());
    return 0;
  }
  std::printf("%-6s %14s %14s %10s\n", "n", "response (s)",
              "disk accesses", "speedup");
  double base_time = 0.0;
  for (size_t i = 0; i < results.size(); ++i) {
    const JoinStats& stats = results[i]->stats;
    const auto seconds = static_cast<double>(stats.response_time);
    if (i == 0) {
      base_time = seconds;
    }
    std::printf("%-6d %14s %14s %9.2fx\n", configs[i].num_processors,
                FormatMicrosAsSeconds(stats.response_time).c_str(),
                FormatWithCommas(stats.total_disk_accesses).c_str(),
                base_time / seconds);
  }
  return 0;
}

// `join --engine=native|partition`: the real-thread engines of src/native,
// measured in wall-clock over the dataset's in-memory trees. `--verify`
// re-runs the sequential join and requires set-equal candidates.
int RunNativeJoin(const Dataset& dataset, const std::string& engine,
                  int argc, char** argv) {
  const int threads = IntFlag(argc, argv, "threads", 1);
  if (threads <= 0) {
    std::fprintf(stderr, "error: --threads must be positive\n");
    return 2;
  }
  const bool deterministic = BoolFlag(argc, argv, "deterministic");
  native::NativeJoinResult result;
  if (engine == "native") {
    native::NativeJoinConfig config;
    config.num_threads = threads;
    config.deterministic = deterministic;
    result = native::NativeRTreeJoin(dataset.tree_r, dataset.tree_s, config);
  } else {
    native::PartitionJoinConfig config;
    config.num_threads = threads;
    config.deterministic = deterministic;
    config.grid_dim = IntFlag(argc, argv, "grid", 0);
    result = native::PartitionSweepJoin(
        native::CollectLeafEntries(dataset.tree_r),
        native::CollectLeafEntries(dataset.tree_s), config);
  }
  std::printf("engine %s, %d thread(s) (host has %d)%s\n", engine.c_str(),
              threads, native::HostHardwareConcurrency(),
              deterministic ? ", deterministic" : "");
  std::printf("%s", result.Summary().c_str());
  if (BoolFlag(argc, argv, "verify")) {
    const SequentialJoinResult reference =
        SequentialRTreeJoin(dataset.tree_r, dataset.tree_s);
    if (!native::PairSetsEqual(result.candidates, reference.candidates)) {
      std::fprintf(stderr,
                   "verify: FAILED — %zu candidates vs %zu sequential, "
                   "sets differ\n",
                   result.candidates.size(), reference.candidates.size());
      return 1;
    }
    std::printf("verify: ok — candidate set equals the sequential join "
                "(%zu pairs)\n",
                reference.candidates.size());
  }
  return 0;
}

int CmdJoin(int argc, char** argv) {
  if (!CheckFlags(argc, argv,
                  {{"prefix", FlagKind::kString},
                   {"engine", FlagKind::kString},
                   {"variant", FlagKind::kString},
                   {"reassign", FlagKind::kString},
                   {"placement", FlagKind::kString},
                   {"second-filter", FlagKind::kInt},
                   {"processors", FlagKind::kInt},
                   {"disks", FlagKind::kInt},
                   {"buffer", FlagKind::kInt},
                   {"sweep", FlagKind::kString},
                   {"jobs", FlagKind::kInt},
                   {"json", FlagKind::kBool},
                   {"trace", FlagKind::kString},
                   {"timeline", FlagKind::kBool},
                   {"check", FlagKind::kBool},
                   {"threads", FlagKind::kInt},
                   {"verify", FlagKind::kBool},
                   {"deterministic", FlagKind::kBool},
                   {"grid", FlagKind::kInt}})) {
    return 2;
  }
  auto dataset = LoadDataset(StringFlag(argc, argv, "prefix", ""));
  if (!dataset.has_value()) {
    return 1;
  }
  const std::string engine = StringFlag(argc, argv, "engine", "sim");
  if (engine == "native" || engine == "partition") {
    return RunNativeJoin(*dataset, engine, argc, argv);
  }
  if (engine != "sim") {
    std::fprintf(stderr, "error: unknown --engine=%s "
                         "(sim|native|partition)\n", engine.c_str());
    return 2;
  }
  bool ok = false;
  ParallelJoinConfig config = JoinConfigFromFlags(argc, argv, &ok);
  if (!ok) {
    return 2;
  }
  const bool as_json = BoolFlag(argc, argv, "json");
  const std::string trace_path = StringFlag(argc, argv, "trace", "");
  const bool want_timeline = BoolFlag(argc, argv, "timeline");
  const bool want_check = BoolFlag(argc, argv, "check");
  const std::string sweep = StringFlag(argc, argv, "sweep", "");
  if (!sweep.empty() && (!trace_path.empty() || want_timeline || want_check)) {
    std::fprintf(stderr,
                 "error: --trace/--timeline/--check apply to a single run "
                 "and cannot be combined with --sweep\n");
    return 2;
  }
  if (!as_json) {
    std::printf("config: %s\n\n", config.Describe().c_str());
  }
  ParallelSpatialJoin join(&dataset->tree_r, &dataset->tree_s,
                           &dataset->store_r, &dataset->store_s);
  if (!sweep.empty()) {
    return RunJoinSweep(join, config, sweep, IntFlag(argc, argv, "jobs", 0),
                        as_json);
  }
  trace::TraceSink sink;
  // --json always records a trace: the buffer counters ride on the stats,
  // but the latency histograms (task_duration_us, disk_queue_wait_us) are
  // collected by the instrumentation sites. Tracing does not perturb
  // virtual time, so the results are unchanged.
  if (!trace_path.empty() || want_timeline || as_json) {
    config.trace = &sink;
  }
  check::AccessRegistry registry;
  if (want_check) {
    config.check = &registry;
  }
  auto result = join.Run(config);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  if (as_json) {
    JsonWriter out;
    out.BeginObject();
    out.Key("stats");
    result->stats.WriteJson(out);
    out.Key("histograms");
    out.BeginObject();
    for (const std::string& name : sink.histogram_names()) {
      out.Key(name);
      trace::WriteHistogramJson(out, *sink.FindHistogram(name));
    }
    out.EndObject();
    out.EndObject();
    std::printf("%s\n", out.str().c_str());
  } else {
    std::printf("%s", result->stats.Summary().c_str());
  }
  if (want_timeline) {
    const trace::TimelineTable table = trace::AnalyzeTimeline(
        sink, config.num_processors, result->stats.response_time);
    std::printf("\n%s", table.Format().c_str());
  }
  if (!trace_path.empty()) {
    if (!trace::WriteChromeTrace(sink, trace_path)) {
      std::fprintf(stderr, "error: cannot write trace to '%s'\n",
                   trace_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote Chrome trace (%zu events) to %s\n",
                 sink.events().size(), trace_path.c_str());
  }
  if (want_check) {
    std::fprintf(stderr, "%s", registry.Summary().c_str());
    if (!registry.clean()) {
      return 1;
    }
  }
  return 0;
}

std::optional<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

bool WriteStringToFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  return static_cast<bool>(out);
}

std::string GoldenPath(const std::string& golden_dir,
                       const std::string& figure) {
  return golden_dir + "/" + figure + ".json";
}

// The profiled configuration: the paper's center point (n = d = 8,
// reassignment on all levels) for each buffer/assignment variant.
std::vector<std::pair<std::string, ParallelJoinConfig>> ProfileConfigs() {
  std::vector<std::pair<std::string, ParallelJoinConfig>> configs;
  for (const char* variant : {"lsr", "gsrr", "gd"}) {
    ParallelJoinConfig config = std::strcmp(variant, "lsr") == 0
                                    ? ParallelJoinConfig::Lsr()
                                    : (std::strcmp(variant, "gsrr") == 0
                                           ? ParallelJoinConfig::Gsrr()
                                           : ParallelJoinConfig::Gd());
    config.reassignment = ReassignmentLevel::kAllLevels;
    config.num_processors = 8;
    config.num_disks = 8;
    configs.emplace_back(StringPrintf("%s n=8 d=8 reassign=all", variant),
                         config);
  }
  return configs;
}

// `report` reproduces the paper's figures/tables through the shared
// experiment registry, optionally diffing against the committed golden
// baselines and emitting the combined Markdown report plus trace
// artifacts. Exit code 1 = golden drift (or I/O failure), 2 = bad flags.
int CmdReport(int argc, char** argv) {
  if (!CheckFlags(argc, argv,
                  {{"scale", FlagKind::kDouble},
                   {"figures", FlagKind::kString},
                   {"out-dir", FlagKind::kString},
                   {"golden-dir", FlagKind::kString},
                   {"check", FlagKind::kBool},
                   {"update-goldens", FlagKind::kBool},
                   {"serve", FlagKind::kBool},
                   {"jobs", FlagKind::kInt},
                   {"serve-duration-ms", FlagKind::kInt}})) {
    return 2;
  }
  const double scale = DoubleFlag(argc, argv, "scale", 0.05);
  const std::string figures_flag = StringFlag(argc, argv, "figures", "");
  const std::string out_dir = StringFlag(argc, argv, "out-dir", "");
  const std::string golden_dir = StringFlag(argc, argv, "golden-dir",
                                            "golden");
  const bool check = BoolFlag(argc, argv, "check");
  const bool update_goldens = BoolFlag(argc, argv, "update-goldens");
  const bool with_serve = BoolFlag(argc, argv, "serve");
  const int jobs = IntFlag(argc, argv, "jobs", 0);
  if (scale <= 0.0) {
    std::fprintf(stderr, "error: --scale must be positive\n");
    return 2;
  }
  if (check && update_goldens) {
    std::fprintf(stderr,
                 "error: --check and --update-goldens are exclusive\n");
    return 2;
  }

  std::vector<const report::FigureSpec*> specs;
  if (figures_flag.empty()) {
    for (const report::FigureSpec& spec : report::FigureRegistry()) {
      specs.push_back(&spec);
    }
  } else {
    for (const std::string& name : SplitString(figures_flag, ',')) {
      const report::FigureSpec* spec = report::FindFigureSpec(name);
      if (spec == nullptr) {
        std::fprintf(stderr, "error: unknown figure '%s'\n", name.c_str());
        return 2;
      }
      specs.push_back(spec);
    }
  }

  PaperWorkloadSpec workload_spec;
  if (scale != 1.0) {
    workload_spec = workload_spec.Scaled(scale);
  }
  std::fprintf(stderr, "[report] preparing workload (scale %g)...\n", scale);
  const PaperWorkload workload(workload_spec);

  report::RunOptions options;
  options.scale = scale;
  options.num_threads = jobs;

  int exit_code = 0;
  std::vector<report::FigureReportEntry> entries;
  for (const report::FigureSpec* spec : specs) {
    std::fprintf(stderr, "[report] running %s (%s)...\n", spec->name,
                 spec->title);
    report::FigureReportEntry entry;
    entry.doc = report::RunFigure(*spec, workload, options);
    entry.expectation = spec->expectation;
    if (update_goldens) {
      std::filesystem::create_directories(golden_dir);
      const std::string path = GoldenPath(golden_dir, spec->name);
      if (!WriteStringToFile(path, entry.doc.ToJson() + "\n")) {
        std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
        return 1;
      }
      std::fprintf(stderr, "[report] wrote %s\n", path.c_str());
    }
    if (check) {
      const std::string path = GoldenPath(golden_dir, spec->name);
      const auto text = ReadFileToString(path);
      if (!text.has_value()) {
        std::fprintf(stderr,
                     "error: missing golden %s (run 'psj_cli report "
                     "--update-goldens --scale=%g' to create it)\n",
                     path.c_str(), scale);
        return 1;
      }
      auto golden = report::FigureDoc::FromJsonText(*text);
      if (!golden.ok()) {
        std::fprintf(stderr, "error: corrupt golden %s: %s\n", path.c_str(),
                     golden.status().ToString().c_str());
        return 1;
      }
      report::DriftReport drift = report::DiffAgainstGolden(*golden, entry.doc);
      std::printf("%s", drift.Format().c_str());
      if (!drift.ok()) {
        exit_code = 1;
      }
      entry.drift.push_back(std::move(drift));
    }
    entries.push_back(std::move(entry));
  }

  // The serving sweep is a wall-clock family ("psj-serve-fig-v1"): rendered
  // beside the figures, never golden-compared, but its sampled results are
  // oracle-checked.
  if (with_serve) {
    std::fprintf(stderr,
                 "[report] running serving throughput sweep (host has %d "
                 "core(s))...\n",
                 native::HostHardwareConcurrency());
    report::ServeSweepOptions serve_options;
    serve_options.scale = scale;
    serve_options.duration_micros =
        IntFlag(argc, argv, "serve-duration-ms", 500) * int64_t{1000};
    report::FigureReportEntry entry;
    entry.doc = report::RunServeThroughputFigure(workload, serve_options);
    entry.expectation = report::kServeExpectation;
    const double* verified = entry.doc.FindScalar("verified");
    if (verified == nullptr || *verified != 1.0) {
      std::fprintf(stderr,
                   "error: sampled serving results diverged from the "
                   "single-query oracle\n");
      return 1;
    }
    entries.push_back(std::move(entry));
  }

  // Speedup profiles: one traced run per variant, decomposed into the
  // eight where-did-the-time-go terms. The gd trace doubles as the
  // exported artifact.
  std::vector<report::SpeedupDecomposition> profiles;
  trace::TraceSink artifact_sink;
  for (auto& [label, config] : ProfileConfigs()) {
    std::fprintf(stderr, "[report] profiling %s...\n", label.c_str());
    trace::TraceSink sink;
    config.trace = &sink;
    auto result = workload.RunJoin(config);
    if (!result.ok()) {
      std::fprintf(stderr, "error: profile run failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    profiles.push_back(
        report::DecomposeSpeedup(sink, result->stats, label));
    if (label.compare(0, 2, "gd") == 0) {
      // Move the gd events into the artifact sink for export.
      for (const trace::TraceEvent& event : sink.events()) {
        artifact_sink.Span(event.track, event.category, event.name,
                           event.start, event.end, event.arg0, event.arg1);
      }
      for (const int32_t track : sink.Tracks()) {
        artifact_sink.SetTrackName(track, sink.TrackName(track));
      }
    }
  }

  if (!out_dir.empty()) {
    std::filesystem::create_directories(out_dir);
    for (const report::FigureReportEntry& entry : entries) {
      const std::string path = out_dir + "/" + entry.doc.figure + ".json";
      if (!WriteStringToFile(path, entry.doc.ToJson() + "\n")) {
        std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
        return 1;
      }
    }
    const std::string markdown =
        report::RenderMarkdownReport(entries, profiles);
    if (!WriteStringToFile(out_dir + "/report.md", markdown) ||
        !trace::WriteChromeTrace(artifact_sink,
                                 out_dir + "/join_gd_n8_trace.json") ||
        !trace::WriteCollapsedStacks(artifact_sink,
                                     out_dir + "/join_gd_n8.folded")) {
      std::fprintf(stderr, "error: cannot write artifacts to %s\n",
                   out_dir.c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "[report] wrote %s/report.md, per-figure JSON, Chrome "
                 "trace and collapsed stacks\n",
                 out_dir.c_str());
  } else if (!check && !update_goldens) {
    for (const report::FigureReportEntry& entry : entries) {
      std::printf("%s — %s\n%s\n", entry.doc.figure.c_str(),
                  entry.doc.title.c_str(), entry.doc.FormatText().c_str());
    }
    for (const report::SpeedupDecomposition& profile : profiles) {
      std::printf("%s\n", profile.Format().c_str());
    }
  }
  return exit_code;
}

int CmdWindow(int argc, char** argv) {
  if (!CheckFlags(argc, argv,
                  {{"prefix", FlagKind::kString},
                   {"rect", FlagKind::kString},
                   {"processors", FlagKind::kInt},
                   {"disks", FlagKind::kInt},
                   {"buffer", FlagKind::kInt}})) {
    return 2;
  }
  auto dataset = LoadDataset(StringFlag(argc, argv, "prefix", ""));
  if (!dataset.has_value()) {
    return 1;
  }
  double coords[4];
  if (!ParseDoubles(StringFlag(argc, argv, "rect", ""), 4, coords)) {
    std::fprintf(stderr, "error: --rect=xl,yl,xu,yu is required\n");
    return 2;
  }
  WindowQueryConfig config;
  config.num_processors = IntFlag(argc, argv, "processors", 8);
  config.num_disks = IntFlag(argc, argv, "disks", config.num_processors);
  config.total_buffer_pages =
      static_cast<size_t>(IntFlag(argc, argv, "buffer", 800));
  ParallelWindowQuery query(&dataset->tree_r, &dataset->store_r);
  auto result =
      query.Run(Rect(coords[0], coords[1], coords[2], coords[3]), config);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", result->stats.Summary().c_str());
  return 0;
}

int CmdKnn(int argc, char** argv) {
  if (!CheckFlags(argc, argv,
                  {{"prefix", FlagKind::kString},
                   {"point", FlagKind::kString},
                   {"k", FlagKind::kInt}})) {
    return 2;
  }
  auto dataset = LoadDataset(StringFlag(argc, argv, "prefix", ""));
  if (!dataset.has_value()) {
    return 1;
  }
  double coords[2];
  if (!ParseDoubles(StringFlag(argc, argv, "point", ""), 2, coords)) {
    std::fprintf(stderr, "error: --point=x,y is required\n");
    return 2;
  }
  const int k = IntFlag(argc, argv, "k", 10);
  if (k <= 0) {
    std::fprintf(stderr, "error: --k must be positive\n");
    return 2;
  }
  const auto neighbors = dataset->tree_r.KnnQuery(
      Point{coords[0], coords[1]}, static_cast<size_t>(k));
  std::printf("%zu nearest neighbors of (%g, %g) in map r:\n",
              neighbors.size(), coords[0], coords[1]);
  for (const auto& neighbor : neighbors) {
    std::printf("  object %8llu  mbr-distance %.6f\n",
                static_cast<unsigned long long>(neighbor.object_id),
                neighbor.distance);
  }
  return 0;
}

// `serve`: drive the batched query service (src/serve) over a persisted
// dataset with the open-loop generator and print sustained throughput and
// exact latency percentiles. `--single` is the one-query-at-a-time
// ablation; `--verify-every=N` oracle-checks every Nth accepted query.
//
// Observability (src/obs): `--stats-every-ms=N` prints an interval stats
// line every N ms and, with `--metrics-out=F` / `--metrics-json-out=F`,
// rewrites the latest snapshot to those files in Prometheus text / JSON
// form (each file is always a complete document; the final snapshot lands
// on shutdown, so the flags also work without --stats-every-ms).
// `--trace=F` exports sampled per-request wall-clock spans (every
// `--trace-sample-every`th accepted query) as Chrome trace JSON.
int CmdServe(int argc, char** argv) {
  if (!CheckFlags(argc, argv,
                  {{"prefix", FlagKind::kString},
                   {"qps", FlagKind::kDouble},
                   {"threads", FlagKind::kInt},
                   {"batch-window", FlagKind::kInt},
                   {"duration-ms", FlagKind::kInt},
                   {"single", FlagKind::kBool},
                   {"deadline-us", FlagKind::kInt},
                   {"verify-every", FlagKind::kInt},
                   {"stats-every-ms", FlagKind::kInt},
                   {"metrics-out", FlagKind::kString},
                   {"metrics-json-out", FlagKind::kString},
                   {"trace", FlagKind::kString},
                   {"trace-sample-every", FlagKind::kInt}})) {
    return 2;
  }
  auto dataset = LoadDataset(StringFlag(argc, argv, "prefix", ""));
  if (!dataset.has_value()) {
    return 1;
  }
  serve::LoadGenOptions options;
  options.offered_qps = DoubleFlag(argc, argv, "qps", 2000.0);
  options.num_threads = IntFlag(argc, argv, "threads", 1);
  options.batch_window_micros = IntFlag(argc, argv, "batch-window", 200);
  options.duration_micros =
      IntFlag(argc, argv, "duration-ms", 1000) * int64_t{1000};
  options.batching = !BoolFlag(argc, argv, "single");
  options.deadline_micros = IntFlag(argc, argv, "deadline-us", -1);
  options.verify_every = IntFlag(argc, argv, "verify-every", 0);
  if (options.offered_qps <= 0 || options.num_threads <= 0 ||
      options.duration_micros <= 0) {
    std::fprintf(stderr,
                 "error: --qps, --threads and --duration-ms must be "
                 "positive\n");
    return 2;
  }

  const std::string metrics_out = StringFlag(argc, argv, "metrics-out", "");
  const std::string metrics_json_out =
      StringFlag(argc, argv, "metrics-json-out", "");
  const int64_t stats_every_ms = IntFlag(argc, argv, "stats-every-ms", 0);
  const std::string trace_path = StringFlag(argc, argv, "trace", "");
  const bool with_metrics = stats_every_ms > 0 || !metrics_out.empty() ||
                            !metrics_json_out.empty();

  // Shard layout: worker w writes shard w, the submit path writes shard
  // num_threads (see ServiceConfig::metrics).
  std::unique_ptr<obs::MetricsRegistry> registry;
  obs::GaugeId seal_gauge;
  obs::GaugeId image_gauge;
  obs::GaugeId store_gauge;
  if (with_metrics) {
    registry =
        std::make_unique<obs::MetricsRegistry>(options.num_threads + 1);
    seal_gauge = registry->DefineGauge("rtree_seal_us");
    image_gauge = registry->DefineGauge("rtree_image_bytes");
    store_gauge = registry->DefineGauge("object_store_bytes");
    options.metrics = registry.get();
  }

  trace::TraceSink sink;
  if (!trace_path.empty()) {
    options.trace = &sink;
    options.trace_sample_every =
        IntFlag(argc, argv, "trace-sample-every", 16);
  }

  std::unique_ptr<obs::PeriodicReporter> reporter;
  if (with_metrics) {
    const int64_t seal_us = dataset->tree_r.last_seal_micros() +
                            dataset->tree_s.last_seal_micros();
    const auto image_bytes =
        static_cast<int64_t>(dataset->tree_r.sealed().block_bytes() +
                             dataset->tree_s.sealed().block_bytes());
    const auto store_bytes = static_cast<int64_t>(
        dataset->store_r.bytes() + dataset->store_s.bytes());
    obs::ReporterOptions reporter_options;
    reporter_options.interval_ms =
        stats_every_ms > 0 ? stats_every_ms : 1000;
    reporter_options.prometheus_path = metrics_out;
    reporter_options.json_path = metrics_json_out;
    const bool print_intervals = stats_every_ms > 0;
    reporter_options.on_interval =
        [&registry, seal_gauge, seal_us, image_gauge, image_bytes,
         store_gauge, store_bytes, print_intervals](const obs::MetricsSnapshot& current,
                          const obs::MetricsSnapshot& previous,
                          double seconds) {
          // The service freezes the registry at its own Start(), after
          // this reporter is already running — publish the tree and store
          // gauges as soon as the hot path opens.
          if (registry->frozen()) {
            registry->Set(seal_gauge, seal_us);
            registry->Set(image_gauge, image_bytes);
            registry->Set(store_gauge, store_bytes);
          }
          if (!print_intervals) {
            return;
          }
          const auto counter = [&current](std::string_view name) {
            const auto* c = current.FindCounter(name);
            return c == nullptr ? int64_t{0} : c->value;
          };
          const auto prev_counter = [&previous](std::string_view name) {
            const auto* c = previous.FindCounter(name);
            return c == nullptr ? int64_t{0} : c->value;
          };
          const int64_t done = counter("serve_completed_ok_count");
          const double qps =
              seconds > 0.0
                  ? static_cast<double>(
                        done - prev_counter("serve_completed_ok_count")) /
                        seconds
                  : 0.0;
          const auto* depth = current.FindGauge("serve_queue_depth_count");
          const auto* latency =
              current.FindHistogram("serve_latency_us");
          const auto* batch =
              current.FindHistogram("serve_batch_size_count");
          const int64_t rejects =
              counter("serve_rejected_queue_full_count") +
              counter("serve_rejected_stopped_count") +
              counter("serve_rejected_invalid_count");
          std::printf(
              "[stats] qps %8.1f  queue %4lld  batch p50 %3lld  "
              "latency us p50/p95/p99 %lld/%lld/%lld  miss %lld  "
              "rejects %lld\n",
              qps,
              static_cast<long long>(depth == nullptr ? 0 : depth->value),
              static_cast<long long>(
                  batch == nullptr
                      ? 0
                      : batch->histogram.ValueAtQuantile(0.50)),
              static_cast<long long>(
                  latency == nullptr
                      ? 0
                      : latency->histogram.ValueAtQuantile(0.50)),
              static_cast<long long>(
                  latency == nullptr
                      ? 0
                      : latency->histogram.ValueAtQuantile(0.95)),
              static_cast<long long>(
                  latency == nullptr
                      ? 0
                      : latency->histogram.ValueAtQuantile(0.99)),
              static_cast<long long>(
                  counter("serve_deadline_miss_count")),
              static_cast<long long>(rejects));
          std::fflush(stdout);
        };
    reporter = std::make_unique<obs::PeriodicReporter>(registry.get(),
                                                       reporter_options);
    reporter->Start();
  }

  std::printf("serving for %.1f s at %.0f offered qps (%s, %d worker(s), "
              "window %lld us)...\n",
              static_cast<double>(options.duration_micros) * 1e-6,
              options.offered_qps,
              options.batching ? "batched" : "single-query",
              options.num_threads,
              static_cast<long long>(options.batch_window_micros));
  const serve::LoadGenResult result =
      serve::RunOpenLoopLoad(dataset->tree_r, dataset->tree_s, options);
  if (reporter != nullptr) {
    reporter->Stop();  // Emits the final snapshot to the file sinks.
  }
  const serve::ServiceStats& stats = result.stats;
  std::printf(
      "sustained %.1f qps (offered %.1f)\n"
      "queries: %lld submitted, %lld accepted, %lld rejected queue-full, "
      "%lld ok, %lld deadline-exceeded\n"
      "latency us: p50 %lld  p95 %lld  p99 %lld  "
      "(histogram %lld/%lld/%lld)\n"
      "avg batch %.2f, peak queue depth %lld\n"
      "descent: %lld nodes visited, %lld node scans, %lld entry tests\n",
      result.sustained_qps, result.offered_qps,
      static_cast<long long>(stats.submitted),
      static_cast<long long>(stats.accepted),
      static_cast<long long>(stats.rejected_queue_full),
      static_cast<long long>(stats.completed_ok),
      static_cast<long long>(stats.deadline_exceeded),
      static_cast<long long>(result.p50_latency_us),
      static_cast<long long>(result.p95_latency_us),
      static_cast<long long>(result.p99_latency_us),
      static_cast<long long>(stats.latency_us.ValueAtQuantile(0.50)),
      static_cast<long long>(stats.latency_us.ValueAtQuantile(0.95)),
      static_cast<long long>(stats.latency_us.ValueAtQuantile(0.99)),
      stats.AvgBatchSize(), static_cast<long long>(stats.peak_queue_depth),
      static_cast<long long>(stats.descent.nodes_visited),
      static_cast<long long>(stats.descent.node_scans),
      static_cast<long long>(stats.descent.entry_tests));
  if (!trace_path.empty()) {
    if (trace::WriteChromeTrace(sink, trace_path)) {
      std::printf("sampled request trace (every %lld) -> %s\n",
                  static_cast<long long>(options.trace_sample_every),
                  trace_path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write trace to %s\n",
                   trace_path.c_str());
      return 1;
    }
  }
  if (!metrics_out.empty()) {
    std::printf("prometheus metrics -> %s\n", metrics_out.c_str());
  }
  if (!metrics_json_out.empty()) {
    std::printf("json metrics -> %s\n", metrics_json_out.c_str());
  }
  if (options.verify_every > 0) {
    std::printf("oracle: %lld sampled, %lld mismatched\n",
                static_cast<long long>(result.verified_queries),
                static_cast<long long>(result.verify_failures));
    if (result.verify_failures > 0) {
      return 1;
    }
  }
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: psj_cli <generate|inspect|join|window|knn|serve|report> "
      "[--flags]\n"
      "  generate --prefix=P [--objects=N] [--seed=S]\n"
      "  inspect  --prefix=P\n"
      "  join     --prefix=P [--variant=lsr|gsrr|gd|sn] [--processors=N]\n"
      "           [--disks=N] [--buffer=N] [--reassign=none|root|all]\n"
      "           [--placement=modulo|hilbert] [--second-filter=0|1]\n"
      "           [--sweep=n1,n2,...] [--jobs=N] [--json]\n"
      "           [--trace=OUT.json] [--timeline] [--check]\n"
      "           [--engine=sim|native|partition] [--threads=N] [--verify]\n"
      "           [--deterministic] [--grid=K]\n"
      "  window   --prefix=P --rect=xl,yl,xu,yu [--processors=N]\n"
      "           [--disks=N] [--buffer=N]\n"
      "  knn      --prefix=P --point=x,y [--k=N]\n"
      "  serve    --prefix=P [--qps=F] [--threads=N] [--batch-window=US]\n"
      "           [--duration-ms=N] [--single] [--deadline-us=N]\n"
      "           [--verify-every=N]\n"
      "           [--stats-every-ms=N] [--metrics-out=F]\n"
      "           [--metrics-json-out=F]\n"
      "           [--trace=OUT.json] [--trace-sample-every=N]\n"
      "  report   [--figures=fig5,...] [--scale=F] [--jobs=N]\n"
      "           [--golden-dir=DIR] [--check | --update-goldens]\n"
      "           [--out-dir=DIR]\n"
      "           [--serve] [--serve-duration-ms=N]\n");
  return 2;
}

}  // namespace
}  // namespace psj

int main(int argc, char** argv) {
  if (argc < 2) {
    return psj::Usage();
  }
  const std::string command = argv[1];
  if (command == "generate") return psj::CmdGenerate(argc, argv);
  if (command == "inspect") return psj::CmdInspect(argc, argv);
  if (command == "join") return psj::CmdJoin(argc, argv);
  if (command == "report") return psj::CmdReport(argc, argv);
  if (command == "window") return psj::CmdWindow(argc, argv);
  if (command == "knn") return psj::CmdKnn(argc, argv);
  if (command == "serve") return psj::CmdServe(argc, argv);
  return psj::Usage();
}
