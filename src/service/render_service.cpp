#include "service/render_service.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/runconfig.h"
#include "common/timer.h"
#include "core/pipeline.h"
#include "dataset/dataset.h"
#include "gaussian/ply_io.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace gstg {

const char* to_string(ServiceStatus status) {
  switch (status) {
    case ServiceStatus::kOk:
      return "ok";
    case ServiceStatus::kInvalidRequest:
      return "invalid_request";
    case ServiceStatus::kSceneLoadFailed:
      return "scene_load_failed";
    case ServiceStatus::kQueueFull:
      return "queue_full";
    case ServiceStatus::kShutdown:
      return "shutdown";
    case ServiceStatus::kInternalError:
      return "internal_error";
  }
  return "?";
}

bool validate_render_request(const RenderRequest& request, std::string& error) {
  if (request.scene.empty()) {
    error = "scene id is empty";
    return false;
  }
  const Camera& camera = request.camera;
  if (camera.width() > kMaxImageDim || camera.height() > kMaxImageDim) {
    error = "image size " + std::to_string(camera.width()) + "x" +
            std::to_string(camera.height()) + " exceeds the " + std::to_string(kMaxImageDim) +
            " limit";
    return false;
  }
  // The Camera constructor guarantees positive sizes and focal lengths, but
  // NaN/Inf principal points or pose entries pass it and would poison every
  // downstream stage; reject them here at the service boundary.
  bool finite = std::isfinite(camera.fx()) && std::isfinite(camera.fy()) &&
                std::isfinite(camera.cx()) && std::isfinite(camera.cy());
  for (const auto& row : camera.world_to_camera().m) {
    for (const float v : row) finite = finite && std::isfinite(v);
  }
  if (!finite) {
    error = "camera has non-finite intrinsics or pose";
    return false;
  }
  if (request.fast_tier) {
    error = "fast_tier is retired and must be false (every request renders exact)";
    return false;
  }
  return true;
}

ServiceConfig::ServiceConfig() {
  // Service-layer defaults: parallelism comes from the worker pool, so
  // per-frame rendering stays single-threaded, and session streams reuse
  // cross-frame sort order by default.
  render.threads = 1;
  render.temporal = TemporalMode::kReuse;
}

ServiceConfig ServiceConfig::resolved() const {
  ServiceConfig r = *this;
  if (r.workers == 0) {
    r.workers = env_positive_size("GSTG_SERVICE_WORKERS",
                                  std::min<std::size_t>(worker_thread_count(), 4));
  }
  if (r.queue_capacity == 0) r.queue_capacity = env_positive_size("GSTG_SERVICE_QUEUE", 64);
  if (r.scene_capacity == 0) r.scene_capacity = env_positive_size("GSTG_SERVICE_SCENES", 4);
  if (r.max_batch == 0) r.max_batch = env_positive_size("GSTG_SERVICE_BATCH", 16);
  if (r.session_capacity == 0) {
    r.session_capacity = env_positive_size("GSTG_SERVICE_SESSIONS", 64);
  }
  // Resolve the render overrides here, on the caller's thread: a misspelled
  // value must fail the constructor, not a worker thread after startup.
  r.render = r.render.resolved();
  return r;
}

namespace {

RenderResponse error_response(ServiceStatus status, std::string message) {
  RenderResponse response;
  response.status = status;
  response.error = std::move(message);
  return response;
}

}  // namespace

RenderService::RenderService(const ServiceConfig& config, Loader loader)
    : config_(config.resolved()), cache_(config_.scene_capacity, std::move(loader)) {
  telemetry::ensure_started_from_env();
  telemetry::ensure_metrics_from_env();
  if (config_.trace) telemetry::ensure_collecting();
  workers_.reserve(config_.workers);
  try {
    for (std::size_t w = 0; w < config_.workers; ++w) {
      workers_.emplace_back([this, w] {
        telemetry::set_thread_name("service-worker-" + std::to_string(w));
        worker_loop();
      });
    }
  } catch (...) {
    // A failed spawn (thread exhaustion) must not unwind joinable threads —
    // that would be std::terminate. Stop and join what did start, then let
    // the caller see the original error.
    shutdown();
    throw;
  }
}

RenderService::~RenderService() { shutdown(); }

std::future<RenderResponse> RenderService::submit(RenderRequest request) {
  return enqueue(std::move(request), /*block=*/true);
}

std::future<RenderResponse> RenderService::try_submit(RenderRequest request) {
  return enqueue(std::move(request), /*block=*/false);
}

std::future<RenderResponse> RenderService::enqueue(RenderRequest&& request, bool block) {
  std::promise<RenderResponse> promise;
  std::future<RenderResponse> future = promise.get_future();

  std::string error;
  if (!validate_render_request(request, error)) {
    promise.set_value(error_response(ServiceStatus::kInvalidRequest, error));
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.requests_rejected;
    return future;
  }

  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (block) {
      // Backpressure: hold the submitter until the scheduler frees a slot.
      space_cv_.wait(lock,
                     [this] { return stopping_ || queue_.size() < config_.queue_capacity; });
    }
    if (stopping_) {
      ++stats_.requests_rejected;
      promise.set_value(error_response(ServiceStatus::kShutdown, "service is shut down"));
      return future;
    }
    if (queue_.size() >= config_.queue_capacity) {
      ++stats_.requests_rejected;
      promise.set_value(error_response(
          ServiceStatus::kQueueFull,
          "queue full (" + std::to_string(config_.queue_capacity) + " pending requests)"));
      return future;
    }
    Pending pending{std::move(request), std::move(promise)};
    pending.enqueued_ns = telemetry::now_ns();
    queue_.push_back(std::move(pending));
    ++stats_.requests_submitted;
    stats_.peak_queue_depth = std::max(stats_.peak_queue_depth, queue_.size());
    telemetry::emit_counter("queue_depth", static_cast<double>(queue_.size()));
    telemetry::MetricsRegistry::global().sample_gauge("service.queue_depth",
                                                      static_cast<double>(queue_.size()));
  }
  work_cv_.notify_one();
  return future;
}

void RenderService::shutdown() {
  std::vector<std::thread> to_join;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    to_join.swap(workers_);
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  for (std::thread& t : to_join) t.join();
}

ServiceStats RenderService::stats() const {
  ServiceStats snapshot;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    snapshot = stats_;
    snapshot.sessions = sessions_.size();
  }
  const SceneCacheStats cache = cache_.stats();
  snapshot.cache_hits = cache.hits;
  snapshot.cache_misses = cache.misses;
  snapshot.cache_evictions = cache.evictions;
  return snapshot;
}

bool RenderService::eligible_request_queued() const {
  for (const Pending& pending : queue_) {
    const std::uint64_t s = pending.request.session;
    if (s == 0) return true;
    const auto it = sessions_.find(s);
    if (it == sessions_.end() || !it->second.busy) return true;
  }
  return false;
}

std::vector<RenderService::Pending> RenderService::take_batch() {
  std::vector<Pending> batch;
  std::size_t idx = queue_.size();
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const std::uint64_t s = queue_[i].request.session;
    if (s == 0) {
      idx = i;
      break;
    }
    const auto it = sessions_.find(s);
    if (it == sessions_.end() || !it->second.busy) {
      idx = i;
      break;
    }
  }
  if (idx == queue_.size()) return batch;

  Pending first = std::move(queue_[idx]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(idx));
  const std::string key = first.request.scene;
  const std::uint64_t session_id = first.request.session;
  batch.push_back(std::move(first));

  // Batch growth: a session stream is serialized on one worker anyway, so
  // it may batch up to the cap; stateless requests are divided so idle
  // workers keep getting work under light load.
  std::size_t limit = config_.max_batch;
  if (session_id == 0) {
    limit = std::min(limit, std::size_t{1} + queue_.size() / std::max<std::size_t>(config_.workers, 1));
  }
  for (std::size_t i = idx; i < queue_.size() && batch.size() < limit;) {
    Pending& candidate = queue_[i];
    if (candidate.request.session != session_id) {
      ++i;
      continue;
    }
    if (candidate.request.scene != key) {
      // A same-session request for a different scene must stay behind the
      // ones we already took (streams render in submission order); for
      // stateless requests there is no order to preserve.
      if (session_id != 0) break;
      ++i;
      continue;
    }
    batch.push_back(std::move(candidate));
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
  }

  if (session_id != 0) {
    Session& session = sessions_[session_id];
    if (!session.renderer) {
      session.renderer = std::make_unique<TemporalRenderer>(config_.render);
      // Session scratch is cloud-sized, so the resident set is capped: a
      // new session beyond the cap evicts the least-recently-dispatched
      // idle one (never a busy one — if everything is busy, the overshoot
      // is bounded by the worker count and shrinks at the next creation).
      while (sessions_.size() > config_.session_capacity) {
        auto victim = sessions_.end();
        for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
          if (it->first == session_id || it->second.busy) continue;
          if (victim == sessions_.end() || it->second.last_used < victim->second.last_used) {
            victim = it;
          }
        }
        if (victim == sessions_.end()) break;
        sessions_.erase(victim);
        ++stats_.sessions_evicted;
      }
    }
    session.busy = true;
    session.last_used = ++dispatch_clock_;
  }
  ++stats_.batches;
  if (batch.size() > 1) stats_.batched_requests += batch.size();
  stats_.max_batch = std::max(stats_.max_batch, batch.size());
  return batch;
}

RenderResponse RenderService::render_one(const RenderRequest& request, const GaussianCloud& cloud,
                                         Session* session, Renderer& stateless,
                                         FrameContext& stateless_ctx) {
  RenderResponse response;
  Timer timer;
  try {
    {
      GSTG_SPAN("service_render");
      if (session != nullptr) {
        if (session->scene_key != request.scene) {
          // The cross-frame cache is meaningless across scenes: cold-start it.
          session->renderer->invalidate();
          session->scene_key = request.scene;
        }
        session->renderer->render(cloud, request.camera, session->ctx);
        response.image = session->ctx.image;
        response.counters = session->ctx.counters;
        response.temporal = session->renderer->last_frame();
      } else {
        stateless.render(cloud, request.camera, stateless_ctx);
        response.image = stateless_ctx.image;
        response.counters = stateless_ctx.counters;
      }
    }
    telemetry::MetricsRegistry::global().record_latency("service.render_ms", timer.lap_ms());
    if (config_.verify) {
      // The kVerify-style service gate: every response must be bit-identical
      // to a sequential one-shot render of the same request.
      GSTG_SPAN("service_verify");
      GsTgConfig reference = config_.render;
      reference.temporal = TemporalMode::kOff;
      const RenderResult oneshot = render_gstg(cloud, request.camera, reference);
      if (max_abs_diff(oneshot.image, response.image) != 0.0f) {
        response = error_response(
            ServiceStatus::kInternalError,
            "verify gate: service output diverged from sequential render_gstg");
        const std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.verify_mismatches;
      }
    }
  } catch (const std::exception& e) {
    response = error_response(ServiceStatus::kInternalError, e.what());
  }
  return response;
}

void RenderService::worker_loop() {
  // Persistent per-worker resources: stateless requests render through one
  // reused Renderer + FrameContext (the zero-steady-state-allocation path).
  Renderer stateless(config_.render);
  FrameContext stateless_ctx;

  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] {
        return eligible_request_queued() || (stopping_ && queue_.empty());
      });
      if (stopping_ && queue_.empty()) return;
      batch = take_batch();
    }
    space_cv_.notify_all();
    if (batch.empty()) continue;

    // Each request's queue residency, [enqueue, dispatch), attributed to the
    // worker that dispatched it.
    const std::uint64_t dispatched_ns = telemetry::now_ns();
    for (const Pending& pending : batch) {
      // Async, not scoped: the wait began on the client thread at enqueue
      // time and can overlap this worker's own spans without nesting.
      telemetry::emit_async_span("queue_wait", pending.enqueued_ns, dispatched_ns);
      telemetry::MetricsRegistry::global().record_latency(
          "service.queue_wait_ms",
          static_cast<double>(dispatched_ns - pending.enqueued_ns) / 1e6);
    }
    GSTG_SPAN("service_batch");

    const std::string key = batch.front().request.scene;
    const std::uint64_t session_id = batch.front().request.session;

    // Resolve the scene once per batch. A failed load resolves every
    // request in the batch with a typed error — the process stays up.
    std::shared_ptr<const GaussianCloud> cloud;
    ServiceStatus load_status = ServiceStatus::kOk;
    std::string load_error;
    try {
      cloud = cache_.acquire(key);
    } catch (const PlyError& e) {
      load_status = ServiceStatus::kSceneLoadFailed;
      load_error = e.what();
    } catch (const DatasetError& e) {
      load_status = ServiceStatus::kSceneLoadFailed;
      load_error = e.what();
    } catch (const std::invalid_argument& e) {
      load_status = ServiceStatus::kSceneLoadFailed;
      load_error = e.what();
    } catch (const std::exception& e) {
      load_status = ServiceStatus::kInternalError;
      load_error = e.what();
    }

    Session* session = nullptr;
    if (session_id != 0) {
      const std::lock_guard<std::mutex> lock(mutex_);
      session = &sessions_.at(session_id);  // node pointers are stable; busy = ours
    }

    std::size_t completed = 0;
    std::size_t failed = 0;
    std::size_t reuse_pairs = 0;
    std::size_t sorted_pairs = 0;
    std::vector<RenderResponse> responses;
    responses.reserve(batch.size());
    for (Pending& pending : batch) {
      RenderResponse response =
          load_status == ServiceStatus::kOk
              ? render_one(pending.request, *cloud, session, stateless, stateless_ctx)
              : error_response(load_status, load_error);
      response.ok() ? ++completed : ++failed;
      reuse_pairs += response.temporal.pairs_reused;
      sorted_pairs += response.temporal.pairs_sorted;
      responses.push_back(std::move(response));
    }

    // Commit the stats and free the session *before* resolving the futures,
    // so a client that observed its response also observes it in stats().
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (session != nullptr) session->busy = false;
      stats_.requests_completed += completed;
      stats_.requests_failed += failed;
      stats_.reuse_pairs += reuse_pairs;
      stats_.sorted_pairs += sorted_pairs;
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i].promise.set_value(std::move(responses[i]));
    }
    // A freed session (or the drained queue slots) may make queued requests
    // eligible for other workers.
    work_cv_.notify_all();
  }
}

}  // namespace gstg
