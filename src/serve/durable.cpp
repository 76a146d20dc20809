#include "serve/durable.hpp"

#include "ckpt/serialize.hpp"
#include "util/error.hpp"
#include "util/json_writer.hpp"

namespace crusade::serve {

std::string encode_durable_result(const DurableResult& r) {
  ckpt::BinWriter w;
  w.u64(r.id);
  w.u8(static_cast<std::uint8_t>(r.kind));
  w.u8(static_cast<std::uint8_t>(r.outcome));
  w.i32(r.priority);
  w.i32(r.attempts);
  w.u8(r.cached ? 1 : 0);
  w.i32(r.finish_seq);
  w.i64(r.wait_ms);
  w.i64(r.run_ms);
  w.str(r.detail);
  w.str(r.body);
  w.u64(r.history.size());
  for (const AttemptRecord& a : r.history) {
    w.i32(a.attempt);
    w.i64(a.start_ms);
    w.i64(a.end_ms);
    w.str(a.fate);
    w.u64(a.crash_span_stack.size());
    for (const std::string& span : a.crash_span_stack) w.str(span);
    w.u64(a.crash_counters.size());
    for (const auto& [name, value] : a.crash_counters) {
      w.str(name);
      w.i64(value);
    }
  }
  return w.bytes();
}

DurableResult decode_durable_result(const std::string& payload) {
  ckpt::BinReader r(payload);
  DurableResult out;
  out.id = r.u64();
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(JobKind::Survive))
    throw Error("durable result: unknown job kind " + std::to_string(kind));
  out.kind = static_cast<JobKind>(kind);
  const std::uint8_t outcome = r.u8();
  if (outcome > static_cast<std::uint8_t>(JobOutcome::Cancelled))
    throw Error("durable result: unknown outcome " + std::to_string(outcome));
  out.outcome = static_cast<JobOutcome>(outcome);
  out.priority = r.i32();
  out.attempts = r.i32();
  out.cached = r.u8() != 0;
  out.finish_seq = r.i32();
  out.wait_ms = static_cast<long>(r.i64());
  out.run_ms = static_cast<long>(r.i64());
  out.detail = r.str();
  out.body = r.str();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    AttemptRecord a;
    a.attempt = r.i32();
    a.start_ms = static_cast<long>(r.i64());
    a.end_ms = static_cast<long>(r.i64());
    a.fate = r.str();
    const std::uint64_t spans = r.u64();
    for (std::uint64_t s = 0; s < spans; ++s)
      a.crash_span_stack.push_back(r.str());
    const std::uint64_t counters = r.u64();
    for (std::uint64_t c = 0; c < counters; ++c) {
      const std::string name = r.str();
      const long long value = r.i64();
      a.crash_counters.emplace_back(name, value);
    }
    out.history.push_back(std::move(a));
  }
  if (!r.at_end())
    throw Error("durable result: trailing bytes after payload");
  return out;
}

std::string failure_body(JobKind kind, const char* klass,
                         const std::string& message, int attempts) {
  tools::JsonWriter w;
  w.begin_object()
      .key("kind").value(to_string(kind))
      .key("error").value(message)
      .key("error_class").value(klass)
      .key("attempts").value(attempts)
      .end_object();
  return w.str();
}

}  // namespace crusade::serve
