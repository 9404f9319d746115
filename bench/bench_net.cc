// Ingest-plane benchmarks (google-benchmark): what the binary-framed TCP
// plane costs on top of in-process feeding. BM_IngestThroughput drives a
// full loopback stack — BlobsGenerator → IngestClient → IngestServer →
// DiscEngine — while BM_WireEncodeFeedSlide / BM_WireDecodeFeedSlide
// isolate the codec so the wire share of the gap is attributable.
// Numbers and commentary live in bench/results/ingest_throughput.md.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "engine/disc_engine.h"
#include "net/ingest_client.h"
#include "net/ingest_server.h"
#include "net/wire.h"
#include "stream/blobs_generator.h"

namespace disc {
namespace {

BlobsGenerator::Options StreamOptions(std::uint64_t seed) {
  BlobsGenerator::Options o;
  o.dims = 2;
  o.num_blobs = 4;
  o.extent = 8.0;
  o.stddev = 0.3;
  o.noise_fraction = 0.1;
  o.drift = 0.05;
  o.seed = seed;
  return o;
}

net::CreateSessionRequest BenchSession(std::size_t stride) {
  net::CreateSessionRequest request;
  request.name = "bench";
  request.dims = 2;
  request.window_size = 4 * stride;
  request.stride = stride;
  request.eps = 0.4;
  request.tau = 5;
  return request;
}

// One slide per iteration over the loopback socket, drained whenever the
// admission bound pushes back — so the measured rate includes the real
// backpressure protocol, not an unbounded queue. Rates divide by wall time:
// the client thread mostly waits on the socket, so its CPU time would
// overstate throughput many times over. Args: {lanes, stride}.
void BM_IngestThroughput(benchmark::State& state) {
  const auto lanes = static_cast<std::uint32_t>(state.range(0));
  const auto stride = static_cast<std::size_t>(state.range(1));

  EngineOptions engine_options;
  engine_options.num_threads = lanes;
  DiscEngine engine(engine_options);
  net::IngestServerOptions server_options;
  server_options.engine = &engine;
  server_options.worker_threads = lanes;
  server_options.max_pending_slides = 64;
  net::IngestServer server(server_options);
  if (!server.Start().ok()) {
    state.SkipWithError("ingest server failed to start");
    return;
  }
  net::IngestClientOptions client_options;
  client_options.port = server.port();
  net::IngestClient client(client_options);
  if (!client.Connect().ok() ||
      !client.CreateSession(BenchSession(stride)).ok()) {
    state.SkipWithError("ingest client failed to connect");
    return;
  }

  BlobsGenerator stream(StreamOptions(7));
  for (auto _ : state) {
    const std::vector<Point> slide = stream.NextPoints(stride);
    for (;;) {
      bool busy = false;
      const Status fed = client.FeedSlide("bench", slide, &busy);
      if (fed.ok()) break;
      if (!busy) {
        state.SkipWithError(fed.message().c_str());
        return;
      }
      if (!client.Drain().ok()) {
        state.SkipWithError("drain failed");
        return;
      }
    }
  }
  static_cast<void>(client.Drain());
  client.Close();
  server.Stop();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stride));
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<std::int64_t>(net::kFrameHeaderBytes + 4 + 5 + 1 + 4 +
                                stride * (8 + 2 * 8)));
}
BENCHMARK(BM_IngestThroughput)
    ->Args({1, 200})
    ->Args({2, 200})
    ->Args({4, 200})
    ->Args({2, 1000})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_WireEncodeFeedSlide(benchmark::State& state) {
  BlobsGenerator stream(StreamOptions(7));
  net::FeedSlideRequest request;
  request.name = "bench";
  request.points = stream.NextPoints(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const std::string frame = net::EncodeFrame(
        net::MessageType::kFeedSlide, net::EncodeFeedSlide(request));
    benchmark::DoNotOptimize(frame.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WireEncodeFeedSlide)->Arg(200)->Arg(1000);

void BM_WireDecodeFeedSlide(benchmark::State& state) {
  BlobsGenerator stream(StreamOptions(7));
  net::FeedSlideRequest request;
  request.name = "bench";
  request.points = stream.NextPoints(static_cast<std::size_t>(state.range(0)));
  const std::string payload = net::EncodeFeedSlide(request);
  for (auto _ : state) {
    net::FeedSlideRequest decoded;
    if (!net::DecodeFeedSlide(payload, &decoded).ok()) {
      state.SkipWithError("decode failed");
      return;
    }
    benchmark::DoNotOptimize(decoded.points.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WireDecodeFeedSlide)->Arg(200)->Arg(1000);

}  // namespace
}  // namespace disc

BENCHMARK_MAIN();
