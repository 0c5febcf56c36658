// The repo's one JSON writer and one JSON reader (the gem5 stats-dump
// role): every machine-readable report — bench metrics documents,
// readduo_load summaries, readduo_sim --json — is written by JsonWriter,
// and everything that reads one back (bench_compare, the golden and
// fault tests) goes through flatten_json.
//
// Layout contract the sweep scripts rely on: one key per line, two spaces
// of indent per nesting level, number arrays inline on their key's line,
// and a document's first line is "{" and its last line "}". Doubles print
// at shortest round-trip precision, so parsing a printed value yields the
// bit-identical double.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "stats/histogram.h"

namespace rd::stats {

/// Accumulates key/value pairs and renders a JSON object. Values are
/// numbers, strings, child objects, and arrays of numbers or of child
/// objects; a child is rendered when added. Insertion order is preserved;
/// keys are not deduplicated (callers own uniqueness).
class JsonWriter {
 public:
  JsonWriter& add(const std::string& key, double v) {
    return put(key, number(v));
  }
  JsonWriter& add(const std::string& key, std::uint64_t v) {
    return put(key, number(v));
  }
  JsonWriter& add(const std::string& key, std::int64_t v) {
    return put(key, number(v));
  }
  JsonWriter& add(const std::string& key, const std::string& v) {
    return put(key, '"' + escape(v) + '"');
  }
  JsonWriter& add(const std::string& key, const JsonWriter& child) {
    return put(key, child.body());
  }
  JsonWriter& add(const std::string& key, const std::vector<double>& xs) {
    return put(key, numbers(xs));
  }
  JsonWriter& add(const std::string& key,
                  const std::vector<std::uint64_t>& xs) {
    return put(key, numbers(xs));
  }
  JsonWriter& add(const std::string& key, const std::vector<JsonWriter>& xs) {
    std::string v = "[";
    for (std::size_t i = 0; i < xs.size(); ++i) {
      v += (i ? ",\n  " : "\n  ") + indented(xs[i].body());
    }
    return put(key, v + (xs.empty() ? "]" : "\n]"));
  }

  /// Render as a JSON document ending in a newline.
  std::string str() const { return body() + '\n'; }

 private:
  static std::string number(double v) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  }
  static std::string number(std::uint64_t v) { return std::to_string(v); }
  static std::string number(std::int64_t v) { return std::to_string(v); }

  template <typename T>
  static std::string numbers(const std::vector<T>& xs) {
    std::string v = "[";
    for (std::size_t i = 0; i < xs.size(); ++i) {
      v += (i ? ", " : "") + number(xs[i]);
    }
    return v + "]";
  }

  /// `s` with every line after the first indented two more spaces. Safe
  /// on rendered values: strings carry their newlines escaped.
  static std::string indented(const std::string& s) {
    std::string out;
    for (char c : s) {
      out += c;
      if (c == '\n') out += "  ";
    }
    return out;
  }

  JsonWriter& put(const std::string& key, std::string rendered) {
    items_.emplace_back(key, std::move(rendered));
    return *this;
  }

  /// The object at indent 0, without the trailing newline.
  std::string body() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      out += (i ? ",\n  \"" : "\n  \"") + escape(items_[i].first) +
             "\": " + indented(items_[i].second);
    }
    return out + "\n}";
  }

  static std::string escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out;
  }

  std::vector<std::pair<std::string, std::string>> items_;
};

/// The per-class latency block of every metrics report: count, mean and
/// p50/p95/p99/max in nanoseconds.
inline JsonWriter histogram_json(const LatencyHistogram& h) {
  JsonWriter j;
  j.add("count", h.count())
      .add("mean_ns", h.mean())
      .add("p50_ns", h.p50())
      .add("p95_ns", h.p95())
      .add("p99_ns", h.p99())
      .add("max_ns", h.max());
  return j;
}

/// A parsed JSON document flattened to path -> raw token, ordered by
/// path. Object members extend the path with ".key", array elements with
/// "[i]" (e.g. "runs[0].latency.r_read.p99_ns"). Strings keep their
/// quotes and escapes verbatim; numbers and true/false/null are the bare
/// token. Empty objects and arrays contribute no entries.
using FlatJson = std::map<std::string, std::string>;

/// True when the whole of `token` is one number; its value goes to `v`.
inline bool json_number(std::string_view token, double& v) {
  const char* end = token.data() + token.size();
  const auto r = std::from_chars(token.data(), end, v);
  return r.ec == std::errc() && r.ptr == end;
}

namespace detail {

class JsonFlattener {
 public:
  JsonFlattener(std::string_view text, FlatJson& out) : s_(text), out_(out) {}

  bool document(std::string& err) {
    bool ok = value("");
    if (ok) {
      skip_ws();
      ok = i_ == s_.size() || fail("trailing content");
    }
    if (!ok) err = err_;
    return ok;
  }

 private:
  bool fail(const std::string& what) {
    err_ = "offset " + std::to_string(i_) + ": " + what;
    return false;
  }
  bool at(char c) const { return i_ < s_.size() && s_[i_] == c; }
  bool at_any(std::string_view cs) const {
    return i_ < s_.size() && cs.find(s_[i_]) != std::string_view::npos;
  }
  void skip_ws() {
    while (at_any(" \n\t\r")) ++i_;
  }

  /// The string opening at the current '"', quotes and escapes included.
  bool string(std::string& raw) {
    const std::size_t start = i_++;
    while (i_ < s_.size() && s_[i_] != '"') i_ += s_[i_] == '\\' ? 2 : 1;
    if (i_ >= s_.size()) return fail("unterminated string");
    raw.assign(s_.substr(start, ++i_ - start));
    return true;
  }

  bool value(const std::string& path) {
    skip_ws();
    if (i_ >= s_.size()) return fail("missing value for '" + path + "'");
    if (at('{') || at('[')) return container(path);
    if (at('"')) return string(out_[path]);
    const std::size_t start = i_;
    while (i_ < s_.size() && !at_any(",}] \n\t\r")) ++i_;
    const std::string_view tok = s_.substr(start, i_ - start);
    double v = 0.0;
    if (tok != "true" && tok != "false" && tok != "null" &&
        !json_number(tok, v)) {
      i_ = start;
      return fail("malformed value for '" + path + "'");
    }
    out_[path] = std::string(tok);
    return true;
  }

  /// The members of the object or array opening at the current position.
  bool container(const std::string& path) {
    const bool object = at('{');
    const char close = object ? '}' : ']';
    ++i_;
    skip_ws();
    if (at(close)) {
      ++i_;
      return true;
    }
    for (std::size_t index = 0;; ++index) {
      std::string child = path + "[" + std::to_string(index) + "]";
      if (object) {
        skip_ws();
        if (!at('"')) return fail("expected a key in '" + path + "'");
        if (!string(child)) return false;
        child = child.substr(1, child.size() - 2);
        skip_ws();
        if (!at(':')) return fail("expected ':' after key '" + child + "'");
        ++i_;
        if (!path.empty()) child = path + "." + child;
      }
      if (!value(child)) return false;
      skip_ws();
      if (at(close)) {
        ++i_;
        return true;
      }
      if (!at(',')) {
        return fail(i_ < s_.size() ? std::string("expected ',' or '") + close +
                                         "' in '" + path + "'"
                                   : "unterminated '" + path + "'");
      }
      ++i_;
    }
  }

  std::string_view s_;
  FlatJson& out_;
  std::size_t i_ = 0;
  std::string err_;
};

}  // namespace detail

/// Parse `text` into `out`. Malformed input — an unterminated string,
/// object or array, a missing ':', a bad bare token, or trailing content
/// after the document — returns false with a message naming the offset
/// in `err`; `out` then holds whatever parsed before the error.
inline bool flatten_json(std::string_view text, FlatJson& out,
                         std::string& err) {
  return detail::JsonFlattener(text, out).document(err);
}

}  // namespace rd::stats
