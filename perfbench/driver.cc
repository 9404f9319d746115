// End-to-end and per-layer benchmark of DISC through the surfaces a host
// uses: DiscEngine in-process, and IngestClient -> IngestServer ->
// DiscEngine over loopback. See README.md for the workloads, the metrics
// and which layer metric should move which end-to-end metric.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --out DIR
//
// Inputs are generated from --seed outside every timed section; the
// program only receives the generated points. Every run checks the
// clustering against the reference DBSCAN in oracle.cc and the properties
// listed in README.md. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
// are the end-to-end ones, with --trace 1 the per-layer ones, measured in a
// traced half of the run that follows an untraced half.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/point.h"
#include "common/status.h"
#include "core/disc.h"
#include "engine/disc_engine.h"
#include "index/rtree.h"
#include "net/ingest_client.h"
#include "net/ingest_server.h"
#include "net/wire.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "oracle.h"
#include "stream/blobs_generator.h"
#include "stream/covid_generator.h"
#include "stream/geolife_generator.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using disc::ClusteringSnapshot;
using disc::DiscEngine;
using disc::Point;
using disc::Status;

// Static initialization runs before main: the closest in-process stand-in
// for the moment the process started.
const Clock::time_point kProcessStart = Clock::now();

// Trace ids of the benchmark's own threads; the program's pool lanes use
// 1..lanes and the ingest server's workers record as 0.
constexpr std::uint32_t kMainTid = 90;
constexpr std::uint32_t kPollerTid = 91;
constexpr std::uint32_t kProducerTid = 100;

// Slides between two oracle samples in a measured phase, and the most
// samples one phase keeps per writer.
constexpr std::size_t kSampleEvery = 200;
constexpr std::size_t kMaxSamples = 3;
// Slides an end-to-end phase must hold: ten beyond the p99.
constexpr std::size_t kMinSlides = 1000;
// Most slides one closed-loop phase runs: the room its per-slide records
// get before the engine exists.
constexpr std::size_t kMaxPhaseSlides = std::size_t{1} << 15;
// Checkpoint -> Open cycles at the end of a run.
constexpr int kRecoveryCycles = 31;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

// Nearest-rank quantile of an unsorted sample (0 when empty).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// A field of /proc/self/status ("VmRSS", "VmHWM"), in bytes.
double StatusBytes(const char* key) {
  std::ifstream in("/proc/self/status");
  const std::string prefix = std::string(key) + ":";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stod(line.substr(prefix.size())) * 1024.0;
    }
  }
  return 0.0;
}

// Allocates room for n elements and touches every page of it, so that
// filling *v later grows no resident memory.
template <typename T>
void Pretouch(std::vector<T>* v, std::size_t n) {
  v->assign(n, T{});
  v->clear();
}

std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  bool over_wire = false;
  std::uint32_t dims = 2;
  double eps = 0.0;
  std::uint32_t tau = 0;
  std::size_t window = 0;
  std::size_t stride = 0;
  std::uint32_t lanes = 1;
  std::size_t sessions = 1;
  std::size_t producers = 0;    // Loopback producer connections.
  double slide_rate_hz = 0.0;   // Open-loop slides per session per second.
  double poll_hz = 10.0;        // Snapshot poller rate.
  std::function<std::unique_ptr<disc::StreamSource>(std::uint64_t)> make;
};

bool MakeWorkload(const std::string& name, Workload* w) {
  w->name = name;
  if (name == "covid-cluster") {
    // COVID-19 analogue at Table II's eps/tau, stride 1% of the window.
    w->dims = 2;
    w->eps = 1.2;
    w->tau = 5;
    w->window = 5000;
    w->stride = 50;
    w->lanes = 1;
    w->make = [](std::uint64_t seed) -> std::unique_ptr<disc::StreamSource> {
      disc::CovidGenerator::Options o;
      o.seed = seed;
      return std::make_unique<disc::CovidGenerator>(o);
    };
    return true;
  }
  if (name == "geolife-collect") {
    // GeoLife analogue (3-D) at Table II's eps/tau, stride 25%, 2 lanes.
    w->dims = 3;
    w->eps = 0.06;
    w->tau = 7;
    w->window = 10000;
    w->stride = 2500;
    w->lanes = 2;
    w->make = [](std::uint64_t seed) -> std::unique_ptr<disc::StreamSource> {
      disc::GeolifeGenerator::Options o;
      o.extent = 15.0;
      o.num_places = 25;
      o.jitter = 0.006;
      o.seed = seed;
      return std::make_unique<disc::GeolifeGenerator>(o);
    };
    return true;
  }
  if (name == "ingest-tenants") {
    // Twelve small sessions on drifting 2-D blobs, three producer
    // connections of four sessions each, open loop.
    w->over_wire = true;
    w->dims = 2;
    w->eps = 0.25;
    w->tau = 5;
    w->window = 300;
    w->stride = 10;
    w->lanes = 2;
    w->sessions = 12;
    w->producers = 3;
    w->slide_rate_hz = 150.0;
    w->poll_hz = 50.0;
    w->make = [](std::uint64_t seed) -> std::unique_ptr<disc::StreamSource> {
      disc::BlobsGenerator::Options o;
      o.dims = 2;
      o.num_blobs = 6;
      o.extent = 8.0;
      o.stddev = 0.3;
      o.noise_fraction = 0.1;
      o.drift = 0.01;
      o.seed = seed;
      return std::make_unique<disc::BlobsGenerator>(o);
    };
    return true;
  }
  return false;
}

// The benchmark's side of one session: the generated stream and how many
// of its slides the engine acknowledged. It keeps no copy of the window;
// Run::WindowsAfter regenerates windows from the seed once the measured
// phases are over, so the benchmark's memory stays out of engine_rss_mb.
struct Feed {
  std::string name;
  std::uint64_t seed = 0;
  std::unique_ptr<disc::StreamSource> source;
  std::size_t window_size = 0;
  std::size_t stride = 0;
  std::size_t committed = 0;
  std::vector<Point> upcoming;

  // The next slide; generated once and kept until Commit, so a slide that
  // is never sent never leaves a gap in the id sequence.
  const std::vector<Point>& Upcoming() {
    if (upcoming.empty()) upcoming = source->NextPoints(stride);
    return upcoming;
  }
  // The engine acknowledged Upcoming(): it is part of the window now.
  void Commit() {
    upcoming.clear();
    ++committed;
  }
};

// ---------------------------------------------------------------------------
// Checks and samples
// ---------------------------------------------------------------------------

class Checks {
 public:
  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (failures_.size() < 20) failures_.push_back(what);
    ++count_;
  }
  void FailedOp(const std::string& what) {
    Fail(what);
    failed_ops_.fetch_add(1);
  }
  std::size_t count() {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }
  std::vector<std::string> failures() {
    std::lock_guard<std::mutex> lock(mu_);
    return failures_;
  }
  std::size_t failed_ops() const { return failed_ops_.load(); }

 private:
  std::mutex mu_;
  std::vector<std::string> failures_;
  std::size_t count_ = 0;
  std::atomic<std::size_t> failed_ops_{0};
};

// Empty when `snap` holds exactly the ids of the window after some whole
// slide k of a stream whose ids run 0, 1, 2, ...; *k receives k.
std::string CheckWindowShape(const ClusteringSnapshot& snap,
                             std::size_t window, std::size_t stride,
                             std::size_t* k) {
  *k = 0;
  if (snap.ids.empty()) return {};
  for (std::size_t i = 1; i < snap.ids.size(); ++i) {
    if (snap.ids[i] != snap.ids[0] + i) return "snapshot ids not contiguous";
  }
  const std::uint64_t end = snap.ids.back() + 1;
  if (end % stride != 0) return "snapshot ends inside a slide";
  if (snap.ids.size() != std::min<std::uint64_t>(window, end)) {
    return "snapshot is not a whole window";
  }
  *k = static_cast<std::size_t>(end / stride);
  return {};
}

// A session's snapshot after its first `slides` slides; the window it
// must label is regenerated from the seed when the run is over.
struct OracleSample {
  std::string where;
  std::size_t feed = 0;
  std::size_t slides = 0;
  ClusteringSnapshot snap;
};

// Oracle samples taken inside the measured phases. Their storage is
// allocated and touched before the engine exists, so holding them grows no
// resident memory that engine_rss_mb would count. Writers take slots
// concurrently.
class SampleSlots {
 public:
  void Reserve(std::size_t slots, std::size_t window) {
    slots_.resize(slots);
    for (OracleSample& s : slots_) {
      s.where.reserve(64);
      Pretouch(&s.snap.ids, window);
      Pretouch(&s.snap.categories, window);
      Pretouch(&s.snap.cids, window);
    }
  }
  // Copies `snap` into a free slot; false when every slot is taken.
  bool Take(const std::string& where, std::size_t feed, std::size_t slides,
            const ClusteringSnapshot& snap) {
    const std::size_t i = used_.fetch_add(1);
    if (i >= slots_.size()) return false;
    OracleSample& s = slots_[i];
    s.where.assign(where);
    s.feed = feed;
    s.slides = slides;
    s.snap.ids.assign(snap.ids.begin(), snap.ids.end());
    s.snap.categories.assign(snap.categories.begin(), snap.categories.end());
    s.snap.cids.assign(snap.cids.begin(), snap.cids.end());
    return true;
  }
  // The samples taken; call once no writer runs.
  std::vector<OracleSample> Taken() {
    slots_.resize(std::min(used_.load(), slots_.size()));
    return std::move(slots_);
  }

 private:
  std::vector<OracleSample> slots_;
  std::atomic<std::size_t> used_{0};
};

// ---------------------------------------------------------------------------
// Per-phase measurements
// ---------------------------------------------------------------------------

// Sums over in-process slides: LastProbeCounters() and last_metrics().
struct SlideCounters {
  std::size_t slides = 0;
  disc::ProbeCounters probes;
  std::uint64_t collect_searches = 0;
  std::uint64_t cluster_searches = 0;
  std::uint64_t msbfs_expansions = 0;
  double collect_parallel_ms = 0.0;

  void Add(const disc::Disc& d) {
    const disc::ProbeCounters p = d.LastProbeCounters();
    probes.range_searches += p.range_searches;
    probes.nodes_visited += p.nodes_visited;
    probes.entries_checked += p.entries_checked;
    probes.leaf_entries_tested += p.leaf_entries_tested;
    probes.epoch_pruned += p.epoch_pruned;
    const disc::DiscMetrics& m = d.last_metrics();
    collect_searches += m.collect_searches;
    cluster_searches += m.cluster_searches;
    msbfs_expansions += m.msbfs_expansions;
    collect_parallel_ms += d.LastPhaseTimings().collect_parallel_ms;
    ++slides;
  }
};

struct PollStats {
  std::vector<double> query_ms;
  std::vector<double> lateness_ms;
};

struct Phase {
  Clock::time_point start;
  Clock::time_point end;
  std::size_t slides = 0;
  std::size_t points = 0;
  // Over the wire, one entry per producer round: every session of the
  // round shares it, so its quantiles are those of the per-slide values.
  std::vector<double> slide_ms;
  std::vector<double> feed_us;        // In-process FeedSlide calls.
  std::vector<double> wire_feed_us;   // Client FeedSlide round trips.
  std::vector<double> wire_drain_ms;  // Client Drain round trips.
  std::vector<double> lateness_ms;    // Open-loop producer rounds.
  PollStats poll;
  SlideCounters counters;
  std::int64_t trace_from_us = 0;
  std::int64_t trace_to_us = 0;

  double points_per_s() const {
    return Ratio(static_cast<double>(points),
                 std::chrono::duration<double>(end - start).count());
  }
  // Room for `records` slide records, `feeds` in-process and `wire_feeds`
  // client FeedSlide calls, `rounds` producer rounds and `queries` polls,
  // made before the engine exists (see Pretouch).
  void Reserve(std::size_t records, std::size_t feeds, std::size_t wire_feeds,
               std::size_t rounds, std::size_t queries) {
    Pretouch(&slide_ms, records);
    Pretouch(&feed_us, feeds);
    Pretouch(&wire_feed_us, wire_feeds);
    Pretouch(&wire_drain_ms, rounds);
    Pretouch(&lateness_ms, rounds);
    Pretouch(&poll.query_ms, queries);
    Pretouch(&poll.lateness_ms, queries);
  }
};

using QueryFn =
    std::function<Status(const std::string&, ClusteringSnapshot*)>;

// Fixed-rate snapshot poller: query k is due at start + k/hz, goes to
// session k mod |feeds|, and is timed from when it was due; it stops at the
// first due time after *stop is set. Every answer must be a whole window
// after some slide, never going backwards.
void RunPoller(const QueryFn& query, const std::vector<Feed*>& feeds,
               double hz, Clock::time_point start,
               const std::atomic<bool>* stop, PollStats* out,
               Checks* checks) {
  disc::obs::SetThreadTraceTid(kPollerTid);
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / hz));
  std::vector<std::size_t> last_k(feeds.size(), 0);
  ClusteringSnapshot snap;
  for (std::size_t q = 0;; ++q) {
    const Clock::time_point due = start + static_cast<long>(q) * period;
    while (!stop->load() && Clock::now() < due) {
      std::this_thread::sleep_until(
          std::min(due, Clock::now() + std::chrono::milliseconds(5)));
    }
    if (stop->load()) break;
    const Clock::time_point sent = Clock::now();
    const Feed& feed = *feeds[q % feeds.size()];
    Status st;
    {
      disc::obs::TraceSpan span("bench.query");
      st = query(feed.name, &snap);
    }
    const Clock::time_point done = Clock::now();
    if (!st.ok()) {
      checks->FailedOp("query " + feed.name + ": " + st.message());
      continue;
    }
    out->query_ms.push_back(Ms(done - due));
    out->lateness_ms.push_back(Ms(sent - due));
    std::size_t k = 0;
    const std::string shape =
        CheckWindowShape(snap, feed.window_size, feed.stride, &k);
    std::size_t& last = last_k[q % feeds.size()];
    if (!shape.empty()) {
      checks->Fail("polled " + feed.name + ": " + shape);
    } else if (k < last) {
      checks->Fail("polled " + feed.name + " went back a slide");
    }
    last = std::max(last, k);
    snap = ClusteringSnapshot{};  // Hold no copy between queries.
  }
}

// ---------------------------------------------------------------------------
// Trace analysis
// ---------------------------------------------------------------------------

struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::uint64_t slides = 0;
};

struct TraceLayers {
  std::vector<double> update_ms;
  double collect_ms = 0.0;
  double ex_phase_ms = 0.0;
  double neo_phase_ms = 0.0;
  double recheck_ms = 0.0;
  double drain_self_ms = 0.0;   // Summed over drains in the window.
  std::uint64_t drained_slides = 0;
  double wire_overhead_ms = 0.0;  // Summed over client calls.
  std::size_t unmatched_drains = 0;
  std::size_t spans = 0;
};

TraceLayers AnalyzeTrace(const std::vector<disc::obs::CompletedSpan>& spans,
                         std::int64_t from_us, std::int64_t to_us) {
  TraceLayers t;
  t.spans = spans.size();
  std::vector<Interval> drains;   // engine.drain, anywhere.
  std::vector<Interval> updates;  // disc.update inside the window.
  std::vector<Interval> client_drains;
  double client_feed_ms = 0.0;
  for (const auto& s : spans) {
    const Interval iv{s.start_us, s.start_us + s.dur_us, 0};
    const bool inside = s.start_us >= from_us && iv.end <= to_us;
    const double ms = static_cast<double>(s.dur_us) / 1000.0;
    if (std::strcmp(s.name, "engine.drain") == 0) {
      Interval d = iv;
      for (std::uint8_t a = 0; a < s.num_args; ++a) {
        if (std::strcmp(s.args[a].key, "slides") == 0) d.slides = s.args[a].value;
      }
      drains.push_back(d);
    } else if (std::strcmp(s.name, "bench.client.drain") == 0) {
      client_drains.push_back(iv);
    } else if (std::strcmp(s.name, "bench.client.feed") == 0) {
      client_feed_ms += ms;
    } else if (inside && std::strcmp(s.name, "disc.update") == 0) {
      updates.push_back(iv);
      t.update_ms.push_back(ms);
    } else if (inside && std::strcmp(s.name, "disc.collect") == 0) {
      t.collect_ms += ms;
    } else if (inside && std::strcmp(s.name, "disc.ex_phase") == 0) {
      t.ex_phase_ms += ms;
    } else if (inside && std::strcmp(s.name, "disc.neo_phase") == 0) {
      t.neo_phase_ms += ms;
    } else if (inside && std::strcmp(s.name, "disc.recheck") == 0) {
      t.recheck_ms += ms;
    }
  }
  const double n =
      static_cast<double>(std::max<std::size_t>(t.update_ms.size(), 1));
  t.collect_ms /= n;
  t.ex_phase_ms /= n;
  t.neo_phase_ms /= n;
  t.recheck_ms /= n;

  auto by_start = [](const Interval& a, const Interval& b) {
    return a.start < b.start;
  };
  std::sort(updates.begin(), updates.end(), by_start);
  std::sort(drains.begin(), drains.end(), by_start);
  // Self time of each engine.drain in the window: its length minus the
  // union of the disc.update intervals it contains (updates run on the
  // draining thread or on pool lanes).
  for (const Interval& d : drains) {
    if (d.start < from_us || d.end > to_us) continue;
    auto it = std::lower_bound(updates.begin(), updates.end(), d, by_start);
    std::int64_t covered = 0;
    std::int64_t cur_s = 0;
    std::int64_t cur_e = -1;
    for (; it != updates.end() && it->start < d.end; ++it) {
      if (it->end > d.end) continue;
      if (it->start > cur_e) {
        if (cur_e >= cur_s) covered += cur_e - cur_s;
        cur_s = it->start;
        cur_e = it->end;
      } else {
        cur_e = std::max(cur_e, it->end);
      }
    }
    if (cur_e >= cur_s) covered += cur_e - cur_s;
    t.drain_self_ms += static_cast<double>(d.end - d.start - covered) / 1000.0;
    t.drained_slides += d.slides;
  }
  // Each client Drain round trip contains the server engine.drain it
  // caused: the latest-ending engine.drain inside the round trip (an
  // earlier one inside it is another connection's drain it waited for).
  for (const Interval& c : client_drains) {
    const Interval* best = nullptr;
    for (auto it = std::lower_bound(drains.begin(), drains.end(), c, by_start);
         it != drains.end() && it->start <= c.end; ++it) {
      if (it->end <= c.end && (best == nullptr || it->end > best->end)) {
        best = &*it;
      }
    }
    if (best == nullptr) {
      ++t.unmatched_drains;
      continue;
    }
    t.wire_overhead_ms +=
        static_cast<double>((c.end - c.start) - (best->end - best->start)) /
        1000.0;
  }
  t.wire_overhead_ms += client_feed_ms;
  return t;
}

// ---------------------------------------------------------------------------
// Layer probes run outside the measured phases
// ---------------------------------------------------------------------------

struct IndexLayer {
  double insert_ns = 0.0;
  double probe_ns = 0.0;
  double delete_ns = 0.0;
};

// An RTree built from the final windows, probed at eps around every window
// point, then emptied point by point.
IndexLayer MeasureIndex(const std::vector<std::vector<Point>>& windows,
                        std::uint32_t dims, double eps, Checks* checks) {
  IndexLayer out;
  double inserts = 0.0;
  double probes = 0.0;
  double deletes = 0.0;
  std::uint64_t hits = 0;
  for (int rep = 0; rep < 3; ++rep) {
    for (const std::vector<Point>& w : windows) {
      disc::RTree tree(dims);
      Clock::time_point t0 = Clock::now();
      for (const Point& p : w) tree.Insert(p);
      Clock::time_point t1 = Clock::now();
      for (const Point& p : w) {
        tree.RangeSearch(p, eps, [&hits](disc::PointId, const Point&) { ++hits; });
      }
      Clock::time_point t2 = Clock::now();
      bool all_deleted = true;
      for (const Point& p : w) all_deleted = tree.Delete(p) && all_deleted;
      Clock::time_point t3 = Clock::now();
      if (!all_deleted || !tree.empty()) {
        checks->Fail("index probe: a window point could not be deleted");
      }
      out.insert_ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
      out.probe_ns += std::chrono::duration<double, std::nano>(t2 - t1).count();
      out.delete_ns += std::chrono::duration<double, std::nano>(t3 - t2).count();
      inserts += static_cast<double>(w.size());
      probes += static_cast<double>(w.size());
      deletes += static_cast<double>(w.size());
    }
  }
  if (hits < static_cast<std::uint64_t>(probes)) {
    checks->Fail("index probe: a point's own eps-ball missed it");
  }
  out.insert_ns = Ratio(out.insert_ns, inserts);
  out.probe_ns = Ratio(out.probe_ns, probes);
  out.delete_ns = Ratio(out.delete_ns, deletes);
  return out;
}

struct CodecLayer {
  double encode_us = 0.0;
  double decode_us = 0.0;
  double bytes = 0.0;
};

// FeedSlide frames of the workload's own slides, encoded and decoded.
CodecLayer MeasureCodec(const std::vector<std::vector<Point>>& slides,
                        Checks* checks) {
  CodecLayer out;
  if (slides.empty()) return out;
  double encode_us = 0.0;
  double decode_us = 0.0;
  double bytes = 0.0;
  std::size_t n = 0;
  const Clock::time_point stop = Clock::now() + std::chrono::milliseconds(60);
  for (int rep = 0; rep < 20 || Clock::now() < stop; ++rep) {
    for (const std::vector<Point>& pts : slides) {
      disc::net::FeedSlideRequest req;
      req.name = "s0";
      req.points = pts;
      const Clock::time_point t0 = Clock::now();
      const std::string frame = disc::net::EncodeFrame(
          disc::net::MessageType::kFeedSlide, disc::net::EncodeFeedSlide(req));
      const Clock::time_point t1 = Clock::now();
      disc::net::FrameHeader header;
      disc::net::FeedSlideRequest back;
      Status st = disc::net::ParseFrameHeader(
          frame.data(), disc::net::kDefaultMaxFrameBytes, &header);
      const std::string_view payload(frame.data() + disc::net::kFrameHeaderBytes,
                                     frame.size() - disc::net::kFrameHeaderBytes);
      if (st.ok()) st = disc::net::VerifyPayloadCrc(header, payload);
      if (st.ok()) st = disc::net::DecodeFeedSlide(payload, &back);
      const Clock::time_point t2 = Clock::now();
      if (!st.ok() || back.points.size() != pts.size() ||
          back.points.back().id != pts.back().id) {
        checks->Fail("codec round trip: " + st.message());
        return out;
      }
      encode_us += Us(t1 - t0);
      decode_us += Us(t2 - t1);
      bytes += static_cast<double>(frame.size());
      ++n;
    }
  }
  out.encode_us = Ratio(encode_us, static_cast<double>(n));
  out.decode_us = Ratio(decode_us, static_cast<double>(n));
  out.bytes = Ratio(bytes, static_cast<double>(n));
  return out;
}

struct Recovery {
  std::vector<double> checkpoint_ms;
  std::vector<double> recover_ms;
  double bytes = 0.0;
};

// Checkpoint -> Open cycles of the final state. Each reopened engine must
// hold every session clustering-equal, with its slide numbering intact.
Recovery RecoveryCycles(DiscEngine* engine, const disc::EngineOptions& options,
                        const std::vector<Feed*>& feeds, Checks* checks) {
  Recovery out;
  disc::EngineOptions reopen = options;
  reopen.metrics = nullptr;
  for (int cycle = 0; cycle < kRecoveryCycles; ++cycle) {
    const Clock::time_point t0 = Clock::now();
    Status st;
    {
      disc::obs::TraceSpan span("bench.checkpoint");
      st = engine->Checkpoint();
    }
    const Clock::time_point t1 = Clock::now();
    if (!st.ok()) {
      checks->Fail("checkpoint: " + st.message());
      return out;
    }
    Status open_error;
    std::unique_ptr<DiscEngine> reopened;
    {
      disc::obs::TraceSpan span("bench.open");
      reopened = DiscEngine::Open(reopen, &open_error);
    }
    const Clock::time_point t2 = Clock::now();
    if (reopened == nullptr) {
      checks->Fail("open: " + open_error.message());
      return out;
    }
    out.checkpoint_ms.push_back(Ms(t1 - t0));
    out.recover_ms.push_back(Ms(t2 - t1));
    for (const Feed* f : feeds) {
      ClusteringSnapshot before;
      ClusteringSnapshot after;
      if (!engine->QuerySnapshot(f->name, &before).ok() ||
          !reopened->QuerySnapshot(f->name, &after).ok() ||
          !ClusteringEqual(before, after)) {
        checks->Fail("reopened " + f->name + " is not clustering-equal");
      }
      if (engine->SlidesRun(f->name) != reopened->SlidesRun(f->name)) {
        checks->Fail("reopened " + f->name + " lost its slide numbering");
      }
    }
  }
  for (const auto& entry :
       std::filesystem::directory_iterator(options.spill_dir)) {
    if (entry.is_regular_file()) {
      out.bytes += static_cast<double>(entry.file_size());
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".perfbench_out";
};

class Run {
 public:
  Run(const Workload& w, const Args& args) : w_(w), args_(args) {}

  int Execute();

 private:
  void MakeFeeds();
  void SetUpInProcess();
  void SetUpOverWire();
  void MeasureInProcess(Clock::duration length, std::size_t min_slides,
                        Phase* ph);
  void MeasureOverWire(Clock::duration length, Phase* ph);
  void ProducerLoop(std::size_t p, Clock::time_point start,
                    Clock::time_point end, Phase* ph, std::size_t* acked,
                    std::size_t* executed);
  void Reserve(Clock::duration length, Phase* measured);
  void PostProbeOverWire();
  std::vector<std::vector<Point>> WindowsAfter(
      const Feed& f, const std::vector<std::size_t>& slides) const;
  void CheckOracle();
  void Report(const Phase& measured, const Phase* traced,
              const TraceLayers* layers, const IndexLayer* index,
              const CodecLayer* codec, const Recovery& recovery);

  Workload w_;
  Args args_;
  Checks checks_;
  std::vector<std::unique_ptr<Feed>> feeds_;
  std::vector<Feed*> feed_ptrs_;
  disc::obs::MetricsRegistry registry_;
  disc::EngineOptions engine_options_;
  std::unique_ptr<DiscEngine> engine_;
  std::unique_ptr<disc::net::IngestServer> server_;
  std::vector<std::unique_ptr<disc::net::IngestClient>> producers_;
  std::unique_ptr<disc::net::IngestClient> poll_client_;
  disc::Disc* disc_ = nullptr;  // In-process workloads: the lone session.

  std::size_t acked_ = 0;      // Slides the engine acknowledged.
  std::size_t executed_ = 0;   // Sum of Drain executed counts.
  std::size_t attempted_ = 0;  // Measured slides fed and queries issued.
  SampleSlots samples_;
  std::vector<Phase> parts_;   // Over the wire: one per producer.
  std::vector<std::vector<Point>> final_windows_;  // After CheckOracle.
  double rss_before_ = 0.0;
  double rss_filled_ = 0.0;
  double rss_peak_ = 0.0;
  double setup_s_ = 0.0;
  // Post-run in-process probes.
  std::vector<double> query_copy_us_;
  std::vector<double> post_feed_us_;
  SlideCounters post_counters_;
};

void Run::MakeFeeds() {
  for (std::size_t s = 0; s < w_.sessions; ++s) {
    auto f = std::make_unique<Feed>();
    f->name = "s" + std::to_string(s);
    f->seed = Mix(args_.seed, s + 1);
    f->source = w_.make(f->seed);
    f->window_size = w_.window;
    f->stride = w_.stride;
    feed_ptrs_.push_back(f.get());
    feeds_.push_back(std::move(f));
  }
}

disc::SessionOptions SessionFor(const Workload& w) {
  disc::SessionOptions so;
  so.method = "DISC";
  so.spec.dims = w.dims;
  so.spec.window_size = w.window;
  so.spec.stride = w.stride;
  so.spec.disc.eps = w.eps;
  so.spec.disc.tau = w.tau;
  return so;
}

// Everything the measured phase records into is allocated and touched
// here, before the engine exists: per-slide records, producer rounds,
// polls and oracle sample slots. A closed loop stops at kMaxPhaseSlides;
// an open loop's rounds are known from its rate.
void Run::Reserve(Clock::duration length, Phase* measured) {
  const double seconds = std::chrono::duration<double>(length).count();
  // A closed-loop phase may run half as long again to reach kMinSlides.
  const auto queries =
      static_cast<std::size_t>(w_.poll_hz * seconds * 1.5) + 2;
  samples_.Reserve(2 * std::max<std::size_t>(w_.producers, 1) * kMaxSamples,
                   w_.window);
  if (!w_.over_wire) {
    measured->Reserve(kMaxPhaseSlides, kMaxPhaseSlides, 0, 0, queries);
    return;
  }
  const auto rounds = static_cast<std::size_t>(w_.slide_rate_hz * seconds) + 2;
  const std::size_t per = w_.sessions / w_.producers;
  parts_.resize(w_.producers);
  for (Phase& part : parts_) part.Reserve(rounds, 0, rounds * per, rounds, 0);
  measured->Reserve(rounds * w_.producers, 0, rounds * w_.sessions,
                    rounds * w_.producers, queries);
}

void Run::SetUpInProcess() {
  engine_ = std::make_unique<DiscEngine>(engine_options_);
  Feed& f = *feeds_[0];
  if (Status st = engine_->CreateSession(f.name, SessionFor(w_)); !st.ok()) {
    checks_.FailedOp("create session: " + st.message());
    return;
  }
  disc_ = dynamic_cast<disc::Disc*>(engine_->Clusterer(f.name));
  for (std::size_t k = 0; k < w_.window / w_.stride; ++k) {
    if (Status st = engine_->FeedSlide(f.name, f.Upcoming()); !st.ok()) {
      checks_.FailedOp("fill feed: " + st.message());
      return;
    }
    f.Commit();
    ++acked_;
    executed_ += engine_->Drain();
  }
}

void Run::SetUpOverWire() {
  engine_options_.metrics = &registry_;
  engine_ = std::make_unique<DiscEngine>(engine_options_);
  disc::net::IngestServerOptions so;
  so.engine = engine_.get();
  so.metrics = &registry_;
  so.worker_threads = w_.producers + 1;  // One lane per connection.
  server_ = std::make_unique<disc::net::IngestServer>(so);
  if (Status st = server_->Start(); !st.ok()) {
    checks_.FailedOp("server start: " + st.message());
    return;
  }
  disc::net::IngestClientOptions co;
  co.port = server_->port();
  for (std::size_t p = 0; p <= w_.producers; ++p) {
    auto client = std::make_unique<disc::net::IngestClient>(co);
    if (Status st = client->Connect(); !st.ok()) {
      checks_.FailedOp("connect: " + st.message());
      return;
    }
    if (p < w_.producers) {
      producers_.push_back(std::move(client));
    } else {
      poll_client_ = std::move(client);
    }
  }
  const std::size_t per = w_.sessions / w_.producers;
  for (std::size_t s = 0; s < w_.sessions; ++s) {
    disc::net::CreateSessionRequest req;
    req.name = feeds_[s]->name;
    req.dims = w_.dims;
    req.window_size = w_.window;
    req.stride = w_.stride;
    req.eps = w_.eps;
    req.tau = w_.tau;
    if (Status st = producers_[s / per]->CreateSession(req); !st.ok()) {
      checks_.FailedOp("create session: " + st.message());
      return;
    }
  }
  for (std::size_t k = 0; k < w_.window / w_.stride; ++k) {
    for (std::size_t p = 0; p < w_.producers; ++p) {
      for (std::size_t s = p * per; s < (p + 1) * per; ++s) {
        Feed& f = *feeds_[s];
        if (Status st = producers_[p]->FeedSlide(f.name, f.Upcoming());
            !st.ok()) {
          checks_.FailedOp("fill feed: " + st.message());
          return;
        }
        f.Commit();
        ++acked_;
      }
      std::uint64_t ran = 0;
      if (Status st = producers_[p]->Drain(&ran); !st.ok()) {
        checks_.FailedOp("fill drain: " + st.message());
        return;
      }
      executed_ += ran;
    }
  }
}

void Run::MeasureInProcess(Clock::duration length, std::size_t min_slides,
                           Phase* ph) {
  Feed& f = *feeds_[0];
  ph->start = Clock::now();
  const Clock::time_point end = ph->start + length;
  std::atomic<bool> stop{false};
  std::thread poller(RunPoller,
                     QueryFn([this](const std::string& name,
                                    ClusteringSnapshot* out) {
                       return engine_->QuerySnapshot(name, out);
                     }),
                     feed_ptrs_, w_.poll_hz, ph->start, &stop, &ph->poll,
                     &checks_);
  std::size_t samples = 0;
  ClusteringSnapshot scratch;
  Clock::time_point last = ph->start;
  // Closed loop for the run length, and on until the phase holds
  // min_slides slides (at most half as long again).
  for (std::size_t i = 0; i < kMaxPhaseSlides; ++i) {
    const Clock::time_point now = Clock::now();
    if (now >= end && (i >= min_slides || now >= end + length / 2)) break;
    const std::vector<Point>& pts = f.Upcoming();
    const Clock::time_point t0 = Clock::now();
    Status st;
    {
      disc::obs::TraceSpan span("bench.feed");
      st = engine_->FeedSlide(f.name, pts);
    }
    const Clock::time_point t1 = Clock::now();
    std::size_t ran = 0;
    {
      disc::obs::TraceSpan span("bench.drain");
      ran = engine_->Drain();
    }
    const Clock::time_point t2 = Clock::now();
    last = t2;
    ++attempted_;
    if (!st.ok() || ran != 1) {
      checks_.FailedOp("slide: " + st.message());
      break;
    }
    f.Commit();
    ++acked_;
    executed_ += ran;
    ph->slide_ms.push_back(Ms(t2 - t0));
    ph->feed_us.push_back(Us(t1 - t0));
    ++ph->slides;
    ph->points += w_.stride;
    if (disc_ != nullptr) ph->counters.Add(*disc_);
    if (i % kSampleEvery == 0 && samples < kMaxSamples &&
        engine_->QuerySnapshot(f.name, &scratch).ok()) {
      samples_.Take("slide " + std::to_string(engine_->SlidesRun(f.name)), 0,
                    f.committed, scratch);
      scratch = ClusteringSnapshot{};
      ++samples;
    }
  }
  ph->end = last;
  stop.store(true);
  poller.join();
  attempted_ += ph->poll.query_ms.size();
}

void Run::ProducerLoop(std::size_t p, Clock::time_point start,
                       Clock::time_point end, Phase* ph, std::size_t* acked,
                       std::size_t* executed) {
  disc::obs::SetThreadTraceTid(kProducerTid + static_cast<std::uint32_t>(p));
  disc::net::IngestClient& client = *producers_[p];
  const std::size_t per = w_.sessions / w_.producers;
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / w_.slide_rate_hz));
  // Producers are spread evenly over one period.
  const Clock::time_point first =
      start + period * static_cast<long>(p) / static_cast<long>(w_.producers);
  std::size_t samples = 0;
  ClusteringSnapshot scratch;
  for (std::size_t round = 0;; ++round) {
    const Clock::time_point due = first + static_cast<long>(round) * period;
    if (due >= end) break;
    for (std::size_t s = p * per; s < (p + 1) * per; ++s) feeds_[s]->Upcoming();
    std::this_thread::sleep_until(due);
    ph->lateness_ms.push_back(Ms(Clock::now() - due));
    bool ok = true;
    for (std::size_t s = p * per; s < (p + 1) * per; ++s) {
      Feed& f = *feeds_[s];
      const Clock::time_point t0 = Clock::now();
      bool busy = false;
      Status st;
      {
        disc::obs::TraceSpan span("bench.client.feed");
        st = client.FeedSlide(f.name, f.upcoming, &busy);
      }
      ph->wire_feed_us.push_back(Us(Clock::now() - t0));
      if (!st.ok()) {
        checks_.FailedOp("feed " + f.name + ": " + st.message());
        ok = false;
        break;
      }
      f.Commit();
      ++*acked;
    }
    const Clock::time_point t0 = Clock::now();
    std::uint64_t ran = 0;
    Status st;
    {
      disc::obs::TraceSpan span("bench.client.drain");
      st = client.Drain(&ran);
    }
    const Clock::time_point done = Clock::now();
    ph->end = done;
    ph->wire_drain_ms.push_back(Ms(done - t0));
    if (!st.ok() || !ok) {
      if (!st.ok()) checks_.FailedOp("drain: " + st.message());
      break;
    }
    *executed += ran;
    ph->slide_ms.push_back(Ms(done - due));
    ph->slides += per;
    ph->points += per * w_.stride;
    if (round % kSampleEvery == 0 && samples < kMaxSamples) {
      const std::size_t s = p * per + (round / kSampleEvery) % per;
      const Feed& f = *feeds_[s];
      if (client.QuerySnapshot(f.name, &scratch).ok()) {
        samples_.Take("over the wire, " + f.name, s, f.committed, scratch);
        scratch = ClusteringSnapshot{};
        ++samples;
      }
    }
  }
}

void Run::MeasureOverWire(Clock::duration length, Phase* ph) {
  ph->start = Clock::now();
  const Clock::time_point end = ph->start + length;
  std::vector<Phase>& parts = parts_;
  std::vector<std::size_t> acked(w_.producers, 0);
  std::vector<std::size_t> executed(w_.producers, 0);
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < w_.producers; ++p) {
    Phase& part = parts[p];
    part.slides = 0;
    part.points = 0;
    part.slide_ms.clear();
    part.wire_feed_us.clear();
    part.wire_drain_ms.clear();
    part.lateness_ms.clear();
    threads.emplace_back(&Run::ProducerLoop, this, p, ph->start, end, &part,
                         &acked[p], &executed[p]);
  }
  disc::net::IngestClient* poll_client = poll_client_.get();
  std::atomic<bool> stop{false};
  std::thread poller(RunPoller,
                     QueryFn([poll_client](const std::string& name,
                                           ClusteringSnapshot* out) {
                       return poll_client->QuerySnapshot(name, out);
                     }),
                     feed_ptrs_, w_.poll_hz, ph->start, &stop, &ph->poll,
                     &checks_);
  for (std::thread& t : threads) t.join();
  stop.store(true);
  poller.join();
  ph->end = ph->start;
  for (std::size_t p = 0; p < w_.producers; ++p) {
    const Phase& part = parts[p];
    ph->end = std::max(ph->end, part.end);
    ph->slides += part.slides;
    ph->points += part.points;
    auto append = [](std::vector<double>* to, const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(&ph->slide_ms, part.slide_ms);
    append(&ph->wire_feed_us, part.wire_feed_us);
    append(&ph->wire_drain_ms, part.wire_drain_ms);
    append(&ph->lateness_ms, part.lateness_ms);
    acked_ += acked[p];
    executed_ += executed[p];
  }
  attempted_ += ph->slides + ph->poll.query_ms.size();
}

// Over-the-wire workloads: in-process probes of the engine once the
// producers have stopped — five rounds of one slide per session fed
// directly (timing FeedSlide) and drained, reading each session's counters.
void Run::PostProbeOverWire() {
  for (int round = 0; round < 5; ++round) {
    for (Feed* f : feed_ptrs_) {
      const Clock::time_point t0 = Clock::now();
      const Status st = engine_->FeedSlide(f->name, f->Upcoming());
      post_feed_us_.push_back(Us(Clock::now() - t0));
      if (!st.ok()) {
        checks_.FailedOp("post feed: " + st.message());
        return;
      }
      f->Commit();
      ++acked_;
    }
    executed_ += engine_->Drain();
    for (Feed* f : feed_ptrs_) {
      const auto* d = dynamic_cast<const disc::Disc*>(engine_->Clusterer(f->name));
      if (d != nullptr) post_counters_.Add(*d);
    }
  }
}

// The windows session `f` held after each of `slides` (ascending) of its
// slides, regenerated from its seed in one pass over the stream.
std::vector<std::vector<Point>> Run::WindowsAfter(
    const Feed& f, const std::vector<std::size_t>& slides) const {
  std::unique_ptr<disc::StreamSource> source = w_.make(f.seed);
  std::deque<Point> window;
  std::vector<std::vector<Point>> out;
  std::size_t k = 0;
  for (const std::size_t target : slides) {
    for (; k < target; ++k) {
      for (const Point& p : source->NextPoints(w_.stride)) window.push_back(p);
      while (window.size() > w_.window) window.pop_front();
    }
    out.emplace_back(window.begin(), window.end());
  }
  return out;
}

void Run::CheckOracle() {
  std::vector<OracleSample> samples = samples_.Taken();
  // Final state of every session, read back the way the workload reads:
  // over the wire when it runs over the wire.
  for (std::size_t i = 0; i < feeds_.size(); ++i) {
    const Feed& f = *feeds_[i];
    OracleSample s;
    s.where = "final " + f.name;
    s.feed = i;
    s.slides = f.committed;
    const Status st = poll_client_ != nullptr
                          ? poll_client_->QuerySnapshot(f.name, &s.snap)
                          : engine_->QuerySnapshot(f.name, &s.snap);
    if (!st.ok()) {
      checks_.FailedOp("final query: " + st.message());
      return;
    }
    samples.push_back(std::move(s));
  }
  std::stable_sort(samples.begin(), samples.end(),
                   [](const OracleSample& a, const OracleSample& b) {
                     return a.feed != b.feed ? a.feed < b.feed
                                             : a.slides < b.slides;
                   });
  for (std::size_t i = 0, first = 0; i < feeds_.size(); ++i) {
    std::size_t last = first;
    std::vector<std::size_t> slides;
    for (; last < samples.size() && samples[last].feed == i; ++last) {
      slides.push_back(samples[last].slides);
    }
    const std::vector<std::vector<Point>> windows =
        WindowsAfter(*feeds_[i], slides);
    for (std::size_t j = first; j < last; ++j) {
      const OracleSample& s = samples[j];
      const std::vector<Point>& window = windows[j - first];
      const std::string err = CheckDbscan(window, w_.eps, w_.tau, s.snap);
      if (!err.empty()) checks_.Fail("oracle at " + s.where + ": " + err);
    }
    // The final sample holds the most slides: it sorts last.
    final_windows_.push_back(windows.back());
    if (i == 0) {
      const std::string self =
          SelfTestOracle(windows.back(), w_.eps, w_.tau, samples[last - 1].snap);
      if (!self.empty()) checks_.Fail("oracle self-test: " + self);
    }
    first = last;
  }
  std::cout << "oracle: " << samples.size()
            << " labelings checked against brute-force DBSCAN\n";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void Run::Report(const Phase& measured, const Phase* traced,
                 const TraceLayers* layers, const IndexLayer* index,
                 const CodecLayer* codec, const Recovery& recovery) {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  const double checkpoint_ms = Quantile(recovery.checkpoint_ms, 0.5);
  std::vector<Metric> e2e = {
      {"points_per_s", measured.points_per_s(), "points/s"},
      {"slide_p50_ms", Quantile(measured.slide_ms, 0.50), "ms"},
      {"engine_rss_mb", (rss_peak_ - rss_before_) / 1e6, "MB"},
      {"setup_s", setup_s_, "s"},
  };
  std::vector<Metric> per_layer;
  if (traced != nullptr) {
    const Phase& t = *traced;
    const bool wire = w_.over_wire;
    const SlideCounters& c = wire ? post_counters_ : t.counters;
    const double slides = static_cast<double>(std::max<std::size_t>(c.slides, 1));
    const double probes = static_cast<double>(c.probes.range_searches);
    const double copy_us = Quantile(query_copy_us_, 0.5);
    const std::size_t window_points = w_.window * w_.sessions;
    std::vector<double> lateness = t.lateness_ms;
    lateness.insert(lateness.end(), t.poll.lateness_ms.begin(),
                    t.poll.lateness_ms.end());
    // Tracing cost: a closed loop slows down; an open loop runs at its
    // offered rate whatever the cost, so its slides take longer instead.
    const double trace_overhead_pct =
        wire ? 100.0 * (Ratio(Quantile(t.slide_ms, 0.5),
                              Quantile(measured.slide_ms, 0.5)) - 1.0)
             : 100.0 * (1.0 - Ratio(t.points_per_s(), measured.points_per_s()));
    // The tails pool both halves of the run, for ten samples beyond p99.
    std::vector<double> slides_all = measured.slide_ms;
    slides_all.insert(slides_all.end(), t.slide_ms.begin(), t.slide_ms.end());
    std::vector<double> queries_all = measured.poll.query_ms;
    queries_all.insert(queries_all.end(), t.poll.query_ms.begin(),
                       t.poll.query_ms.end());
    per_layer = {
        {"query_p50_ms", Quantile(measured.poll.query_ms, 0.50), "ms"},
        {"slide_p99_ms", Quantile(slides_all, 0.99), "ms"},
        {"query_p99_ms", Quantile(queries_all, 0.99), "ms"},
        {"checkpoint_ms", checkpoint_ms, "ms"},
        {"recover_ms", Quantile(recovery.recover_ms, 0.5), "ms"},
        {"net.feed_rtt_p50_us", Quantile(t.wire_feed_us, 0.5), "us"},
        {"net.drain_rtt_p50_ms", Quantile(t.wire_drain_ms, 0.5), "ms"},
        {"net.wire_overhead_ms_per_slide",
         Ratio(layers->wire_overhead_ms, static_cast<double>(t.slides)), "ms"},
        {"net.encode_us_per_slide", codec->encode_us, "us"},
        {"net.decode_us_per_slide", codec->decode_us, "us"},
        {"net.bytes_per_slide", codec->bytes, "bytes"},
        {"engine.feed_us_p50",
         Quantile(wire ? post_feed_us_ : t.feed_us, 0.5), "us"},
        {"engine.drain_self_ms_per_slide",
         Ratio(layers->drain_self_ms, static_cast<double>(layers->drained_slides)),
         "ms"},
        {"engine.query_copy_us", copy_us, "us"},
        {"engine.query_wait_ms_p50",
         Quantile(t.poll.query_ms, 0.5) - copy_us / 1000.0, "ms"},
        {"engine.checkpoint_bytes", recovery.bytes, "bytes"},
        {"engine.checkpoint_mb_per_s",
         Ratio(recovery.bytes / 1e6, checkpoint_ms / 1000.0), "MB/s"},
        {"core.update_ms_p50", Quantile(layers->update_ms, 0.5), "ms"},
        {"core.collect_ms", layers->collect_ms, "ms"},
        {"core.ex_phase_ms", layers->ex_phase_ms, "ms"},
        {"core.neo_phase_ms", layers->neo_phase_ms, "ms"},
        {"core.recheck_ms", layers->recheck_ms, "ms"},
        {"core.range_searches_per_slide", probes / slides, "count"},
        {"core.collect_searches_per_slide",
         static_cast<double>(c.collect_searches) / slides, "count"},
        {"core.cluster_searches_per_slide",
         static_cast<double>(c.cluster_searches) / slides, "count"},
        {"core.msbfs_expansions_per_slide",
         static_cast<double>(c.msbfs_expansions) / slides, "count"},
        {"core.bytes_per_window_point",
         (rss_filled_ - rss_before_) / static_cast<double>(window_points),
         "bytes"},
        {"index.probe_ns", index->probe_ns, "ns"},
        {"index.insert_ns", index->insert_ns, "ns"},
        {"index.delete_ns", index->delete_ns, "ns"},
        {"index.nodes_per_probe",
         Ratio(static_cast<double>(c.probes.nodes_visited), probes), "count"},
        {"index.leaf_tests_per_probe",
         Ratio(static_cast<double>(c.probes.leaf_entries_tested), probes),
         "count"},
        {"index.epoch_pruned_per_slide",
         static_cast<double>(c.probes.epoch_pruned) / slides, "count"},
        {"pool.collect_parallel_ms", c.collect_parallel_ms / slides, "ms"},
        {"obs.trace_overhead_pct", trace_overhead_pct, "%"},
        {"load.lateness_p99_ms", Quantile(lateness, 0.99), "ms"},
    };
  }

  std::cout << "workload " << w_.name << ", seed " << args_.seed << ", "
            << args_.seconds << " s" << (traced ? " (half untraced, half traced)" : "")
            << "\n  measured slides " << measured.slides << ", queries "
            << measured.poll.query_ms.size() << ", setup " << Num(setup_s_)
            << " s\n";
  if (traced != nullptr) std::cout << "end-to-end (untraced half):\n";
  for (const Metric& m : e2e) {
    std::cout << "  " << m.name << " " << Num(m.value) << " " << m.unit << "\n";
  }
  if (traced != nullptr) {
    std::cout << "per-layer (traced half, " << traced->slides << " slides, "
              << layers->spans << " spans; tails over "
              << measured.slides + traced->slides << " slides and "
              << measured.poll.query_ms.size() + traced->poll.query_ms.size()
              << " queries):\n";
    for (const Metric& m : per_layer) {
      std::cout << "  " << m.name << " " << Num(m.value) << " " << m.unit
                << "\n";
    }
    std::ofstream layers_json(args_.out_dir + "/layers.json");
    layers_json << "{";
    for (std::size_t i = 0; i < per_layer.size(); ++i) {
      layers_json << (i ? ", " : "") << "\"" << per_layer[i].name
                  << "\": {\"value\": " << Num(per_layer[i].value)
                  << ", \"unit\": \"" << per_layer[i].unit << "\"}";
    }
    layers_json << "}\n";
  }
  const std::vector<std::string> failures = checks_.failures();
  for (const std::string& f : failures) std::cout << "CHECK FAILED: " << f << "\n";
  const bool correct = checks_.count() == checks_.failed_ops();

  const std::vector<Metric>& out = traced != nullptr ? per_layer : e2e;
  std::ostringstream line;
  line.precision(10);
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << std::max<std::size_t>(attempted_, 1)
       << ", \"failed\": " << checks_.failed_ops() << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    double v = out[i].value;
    if (!std::isfinite(v)) v = 0.0;
    line << (i ? ", " : "") << "\"" << out[i].name << "\": {\"value\": " << v
         << ", \"unit\": \"" << out[i].unit << "\"}";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
}

int Run::Execute() {
  disc::obs::SetThreadTraceTid(kMainTid);
  std::filesystem::create_directories(args_.out_dir);
  engine_options_.num_threads = w_.lanes;
  engine_options_.spill_dir = args_.out_dir + "/spill";
  std::filesystem::remove_all(engine_options_.spill_dir);
  MakeFeeds();
  const auto length = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(args_.trace ? args_.seconds / 2
                                                : args_.seconds));
  Phase measured;
  Reserve(length, &measured);

  rss_before_ = StatusBytes("VmRSS");
  if (w_.over_wire) {
    SetUpOverWire();
  } else {
    SetUpInProcess();
  }
  rss_filled_ = StatusBytes("VmRSS");
  setup_s_ = std::chrono::duration<double>(Clock::now() - kProcessStart).count();
  if (checks_.failed_ops() > 0) {
    Report(Phase{}, nullptr, nullptr, nullptr, nullptr, Recovery{});
    return 0;
  }

  disc::RTreeStats tree_at_start;
  if (disc_ != nullptr) tree_at_start = disc_->tree_stats();
  auto measure = [&](std::size_t min_slides, Phase* ph) {
    if (w_.over_wire) {
      MeasureOverWire(length, ph);
    } else {
      MeasureInProcess(length, min_slides, ph);
    }
  };
  measure(0, &measured);
  rss_peak_ = StatusBytes("VmHWM");

  Phase traced;
  TraceLayers layers;
  IndexLayer index;
  CodecLayer codec;
  if (args_.trace) {
    disc::obs::TraceRecorder::Options to;
    to.level = disc::obs::TraceLevel::kPhase;
    to.tail_capacity = std::size_t{1} << 19;
    disc::obs::TraceRecorder recorder(to);
    recorder.Install();
    traced.trace_from_us = recorder.Now();
    // The two halves together hold enough slides for ten beyond the p99.
    measure(kMinSlides - std::min(kMinSlides, measured.slides), &traced);
    traced.trace_to_us = recorder.Now();
    recorder.Uninstall();
    const std::vector<disc::obs::CompletedSpan> spans = recorder.TailSnapshot();
    if (spans.size() >= to.tail_capacity) {
      checks_.Fail("trace ring overflowed; per-layer spans incomplete");
    }
    layers = AnalyzeTrace(spans, traced.trace_from_us, traced.trace_to_us);
    if (layers.unmatched_drains > 0) {
      checks_.Fail(std::to_string(layers.unmatched_drains) +
                   " client Drain round trips hold no server engine.drain");
    }
    std::ofstream trace_out(args_.out_dir + "/trace.json");
    recorder.WriteChromeJson(trace_out);
  }

  // In-process: the per-slide LastProbeCounters() sums must equal the
  // change of the tree's own cumulative statistics.
  if (disc_ != nullptr) {
    const disc::RTreeStats& now = disc_->tree_stats();
    disc::ProbeCounters sum = measured.counters.probes;
    sum.range_searches += traced.counters.probes.range_searches;
    sum.nodes_visited += traced.counters.probes.nodes_visited;
    sum.entries_checked += traced.counters.probes.entries_checked;
    sum.leaf_entries_tested += traced.counters.probes.leaf_entries_tested;
    sum.epoch_pruned += traced.counters.probes.epoch_pruned;
    if (sum.range_searches != now.range_searches - tree_at_start.range_searches ||
        sum.nodes_visited != now.nodes_visited - tree_at_start.nodes_visited ||
        sum.entries_checked !=
            now.entries_checked - tree_at_start.entries_checked ||
        sum.leaf_entries_tested !=
            now.leaf_entries_tested - tree_at_start.leaf_entries_tested ||
        sum.epoch_pruned != now.epoch_pruned - tree_at_start.epoch_pruned) {
      checks_.Fail("per-slide probe counters disagree with tree_stats()");
    }
  }

  // Snapshot copy cost with no drain in flight.
  for (int i = 0; i < 40; ++i) {
    ClusteringSnapshot snap;
    const Feed& f = *feeds_[static_cast<std::size_t>(i) % feeds_.size()];
    const Clock::time_point t0 = Clock::now();
    const Status st = engine_->QuerySnapshot(f.name, &snap);
    query_copy_us_.push_back(Us(Clock::now() - t0));
    if (!st.ok()) checks_.Fail("copy probe: " + st.message());
  }
  if (w_.over_wire) PostProbeOverWire();

  CheckOracle();
  if (args_.trace && final_windows_.size() == feeds_.size()) {
    index = MeasureIndex(final_windows_, w_.dims, w_.eps, &checks_);
    // The codec carries each session's latest slide; in-process workloads
    // have no wire, and their net.* metrics read 0.
    std::vector<std::vector<Point>> slides;
    for (const std::vector<Point>& window : final_windows_) {
      if (w_.over_wire && window.size() >= w_.stride) {
        slides.emplace_back(window.end() - static_cast<long>(w_.stride),
                            window.end());
      }
    }
    codec = MeasureCodec(slides, &checks_);
  }

  // Slides acknowledged, Drain executed counts and SlidesRun() agree.
  std::size_t slides_run = 0;
  for (Feed* f : feed_ptrs_) slides_run += engine_->SlidesRun(f->name);
  if (acked_ != executed_ || executed_ != slides_run) {
    checks_.Fail("slides acknowledged " + std::to_string(acked_) +
                 ", drained " + std::to_string(executed_) + ", run " +
                 std::to_string(slides_run));
  }

  for (auto& client : producers_) client->Close();
  if (poll_client_ != nullptr) poll_client_->Close();
  if (server_ != nullptr) server_->Stop();
  const Recovery recovery =
      RecoveryCycles(engine_.get(), engine_options_, feed_ptrs_, &checks_);
  std::filesystem::remove_all(engine_options_.spill_dir);

  Report(measured, args_.trace ? &traced : nullptr, &layers, &index, &codec,
         recovery);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::stoull(value);
    } else if (key == "--seconds") {
      args->seconds = std::stod(value);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--out") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && args->seconds > 0.0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  perfbench::Workload workload;
  if (!perfbench::ParseArgs(argc, argv, &args) ||
      !perfbench::MakeWorkload(args.workload, &workload)) {
    std::cerr << "usage: perfbench_driver --workload "
                 "covid-cluster|geolife-collect|ingest-tenants --seed N "
                 "--seconds S --trace 0|1 [--out DIR]\n";
    return 2;
  }
  perfbench::Run run(workload, args);
  return run.Execute();
}
