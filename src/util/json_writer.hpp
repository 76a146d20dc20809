// Minimal JSON emitter shared by the CLI's machine-readable outputs and the
// crusaded service's response bodies.
//
// `crusade run`/`validate`/`lint`/`trace` each grew --json output
// independently; this helper keeps the envelope conventions in one place so
// the schemas stay consistent and parseable: objects/arrays are closed in
// order, strings are escaped, numbers are emitted in locale-independent
// printf form.  Library-side serializers (AnalysisReport::to_json,
// RunStats::to_json, obs::trace_json) write through it too and emit
// self-contained documents; the writer splices them in verbatim with
// `raw()`.
//
// Lives in src/util so library code (src/analyze, src/obs, src/serve) emits
// the same envelopes the CLI does.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace crusade::tools {

class JsonWriter {
 public:
  JsonWriter& begin_object() {
    comma();
    out_ += '{';
    stack_.push_back(true);
    return *this;
  }
  JsonWriter& end_object() {
    out_ += '}';
    stack_.pop_back();
    mark_value();
    return *this;
  }
  JsonWriter& begin_array() {
    comma();
    out_ += '[';
    stack_.push_back(true);
    return *this;
  }
  JsonWriter& end_array() {
    out_ += ']';
    stack_.pop_back();
    mark_value();
    return *this;
  }

  JsonWriter& key(const std::string& name) {
    comma();
    out_ += '"';
    escape(name);
    out_ += "\":";
    pending_value_ = true;
    return *this;
  }

  JsonWriter& value(const std::string& v) {
    comma();
    out_ += '"';
    escape(v);
    out_ += '"';
    mark_value();
    return *this;
  }
  JsonWriter& value(const char* v) { return value(std::string(v)); }
  JsonWriter& value(bool v) {
    comma();
    out_ += v ? "true" : "false";
    mark_value();
    return *this;
  }
  JsonWriter& value(long long v) {
    comma();
    out_ += std::to_string(v);
    mark_value();
    return *this;
  }
  JsonWriter& value(int v) { return value(static_cast<long long>(v)); }
  JsonWriter& value(unsigned long long v) {
    comma();
    out_ += std::to_string(v);
    mark_value();
    return *this;
  }
  JsonWriter& value(double v, int precision = 6) {
    comma();
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.*f", precision, v);
    out_ += buf;
    mark_value();
    return *this;
  }

  /// Splices a pre-serialized JSON document as the next value.
  JsonWriter& raw(const std::string& json) {
    comma();
    out_ += json;
    mark_value();
    return *this;
  }

  const std::string& str() const { return out_; }

 private:
  void comma() {
    if (pending_value_) return;  // a key was just written; no separator
    if (!stack_.empty() && !stack_.back()) out_ += ',';
  }
  void mark_value() {
    pending_value_ = false;
    if (!stack_.empty()) stack_.back() = false;  // container no longer empty
  }
  void escape(const std::string& s) {
    for (char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        case '\r': out_ += "\\r"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
  }

  std::string out_;
  std::vector<bool> stack_;  ///< per open container: still empty?
  bool pending_value_ = false;
};

}  // namespace crusade::tools
