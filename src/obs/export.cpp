#include "obs/export.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "obs/build_info.h"

namespace eio::obs {

namespace {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

/// Fixed-format double with enough precision for microsecond
/// timestamps; never scientific (Chrome's JSON parser accepts it, but
/// fixed keeps diffs and greps sane).
std::string fixed(double v, int digits = 3) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

}  // namespace

void write_chrome_trace(std::ostream& out, const std::vector<NamedSpan>& spans,
                        const std::vector<NamedInstant>& instants) {
  // Group per tid, then rebuild each thread's B/E stream with an
  // explicit stack sweep. RAII spans nest properly within a thread, so
  // sorting by (begin, depth, completion order) and closing every span
  // at depth >= the incoming one yields balanced, monotonic events even
  // when timestamps tie at microsecond resolution.
  struct Indexed {
    const NamedSpan* s;
    std::size_t seq;
  };
  std::vector<std::uint32_t> tids;
  for (const NamedSpan& s : spans) {
    if (std::find(tids.begin(), tids.end(), s.tid) == tids.end()) {
      tids.push_back(s.tid);
    }
  }
  std::sort(tids.begin(), tids.end());

  out << "{\"traceEvents\":[\n";
  out << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"ensembleio\"}}";
  for (std::uint32_t tid : tids) {
    std::vector<Indexed> mine;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].tid == tid) mine.push_back(Indexed{&spans[i], i});
    }
    std::sort(mine.begin(), mine.end(), [](const Indexed& a, const Indexed& b) {
      if (a.s->t_begin != b.s->t_begin) return a.s->t_begin < b.s->t_begin;
      if (a.s->depth != b.s->depth) return a.s->depth < b.s->depth;
      return a.seq < b.seq;
    });
    auto emit = [&out, tid](const char* ph, const std::string& name,
                            double ts_s) {
      out << ",\n{\"ph\":\"" << ph << "\",\"pid\":1,\"tid\":" << tid
          << ",\"ts\":" << fixed(ts_s * 1e6) << ",\"name\":\"" << escape(name)
          << "\"}";
    };
    std::vector<const NamedSpan*> stack;
    for (const Indexed& it : mine) {
      while (!stack.empty() && stack.back()->depth >= it.s->depth) {
        emit("E", stack.back()->name, stack.back()->t_end);
        stack.pop_back();
      }
      emit("B", it.s->name, it.s->t_begin);
      stack.push_back(it.s);
    }
    while (!stack.empty()) {
      emit("E", stack.back()->name, stack.back()->t_end);
      stack.pop_back();
    }
  }
  // Instant events (ph:"i") — points on the timeline next to the
  // spans; thread scope keeps Perfetto from drawing full-height bars.
  for (const NamedInstant& i : instants) {
    out << ",\n{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":" << i.tid
        << ",\"ts\":" << fixed(i.t * 1e6) << ",\"name\":\"" << escape(i.name)
        << "\"}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"tool\":"
         "\"ensembleio\",\"git_sha\":\""
      << escape(build_info().git_sha) << "\"}}\n";
}

void write_chrome_trace(std::ostream& out) {
  write_chrome_trace(out, Registry::instance().spans(),
                     Registry::instance().instants());
}

void write_metrics_json(std::ostream& out, const Snapshot& snap) {
  out << "{\n";
  out << "  \"schema_version\": " << kMetricsSchemaVersion << ",\n";
  out << "  \"generated_at\": \"" << iso8601_utc_now() << "\",\n";
  out << "  \"build\": ";
  write_build_info_json(out, "  ");
  out << ",\n";
  out << "  \"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    out << (i ? "," : "") << "\n    \"" << escape(snap.counters[i].name)
        << "\": " << snap.counters[i].value;
  }
  out << (snap.counters.empty() ? "" : "\n  ") << "},\n";
  out << "  \"gauges\": {";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    out << (i ? "," : "") << "\n    \"" << escape(snap.gauges[i].name)
        << "\": " << snap.gauges[i].value;
  }
  out << (snap.gauges.empty() ? "" : "\n  ") << "},\n";
  out << "  \"spans_recorded\": " << snap.spans_recorded << ",\n";
  out << "  \"spans_dropped\": " << snap.spans_dropped << ",\n";
  out << "  \"spans\": {";
  for (std::size_t i = 0; i < snap.latency.size(); ++i) {
    const LatencySummary& s = snap.latency[i];
    out << (i ? "," : "") << "\n    \"" << escape(s.name) << "\": {"
        << "\"count\": " << s.moments.count
        << ", \"total_s\": " << fixed(s.total_s, 6)
        << ", \"mean_s\": " << fixed(s.moments.mean, 9)
        << ", \"min_s\": " << fixed(s.min_s, 9)
        << ", \"p50_s\": " << fixed(s.p50_s, 9)
        << ", \"p95_s\": " << fixed(s.p95_s, 9)
        << ", \"p99_s\": " << fixed(s.p99_s, 9)
        << ", \"max_s\": " << fixed(s.max_s, 9) << "}";
  }
  out << (snap.latency.empty() ? "" : "\n  ") << "}\n";
  out << "}\n";
}

void write_metrics_tsv(std::ostream& out, const Snapshot& snap) {
  out << "kind\tname\tcount\tvalue\ttotal_s\tmean_s\tp50_s\tp95_s\tmax_s\n";
  for (const CounterValue& c : snap.counters) {
    out << "counter\t" << c.name << "\t\t" << c.value << "\t\t\t\t\t\n";
  }
  for (const GaugeValue& g : snap.gauges) {
    out << "gauge\t" << g.name << "\t\t" << g.value << "\t\t\t\t\t\n";
  }
  for (const LatencySummary& s : snap.latency) {
    out << "span\t" << s.name << "\t" << s.moments.count << "\t\t"
        << fixed(s.total_s, 6) << "\t" << fixed(s.moments.mean, 9) << "\t"
        << fixed(s.p50_s, 9) << "\t" << fixed(s.p95_s, 9) << "\t"
        << fixed(s.max_s, 9) << "\n";
  }
}

void print_summary(std::ostream& out, const Snapshot& snap) {
  out << "observability summary\n";
  if (!snap.counters.empty()) {
    out << "  counters:\n";
    for (const CounterValue& c : snap.counters) {
      char line[160];
      std::snprintf(line, sizeof line, "    %-36s %14llu\n", c.name.c_str(),
                    static_cast<unsigned long long>(c.value));
      out << line;
    }
  }
  if (!snap.gauges.empty()) {
    out << "  gauges:\n";
    for (const GaugeValue& g : snap.gauges) {
      char line[160];
      std::snprintf(line, sizeof line, "    %-36s %14lld\n", g.name.c_str(),
                    static_cast<long long>(g.value));
      out << line;
    }
  }
  if (!snap.latency.empty()) {
    out << "  spans:                                  count     total(s)"
           "      mean(s)       p95(s)       max(s)\n";
    for (const LatencySummary& s : snap.latency) {
      char line[200];
      std::snprintf(line, sizeof line,
                    "    %-36s %9zu %12.4f %12.6f %12.6f %12.6f\n",
                    s.name.c_str(), s.moments.count, s.total_s, s.moments.mean,
                    s.p95_s, s.max_s);
      out << line;
    }
  }
  if (snap.spans_dropped > 0) {
    out << "  (" << snap.spans_dropped
        << " span records dropped past the per-thread cap)\n";
  }
}

void write_metrics_file(const std::string& path, const Snapshot& snap) {
  std::ofstream file(path);
  if (!file.good()) {
    throw std::runtime_error("cannot open for writing: " + path);
  }
  if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".tsv") == 0) {
    write_metrics_tsv(file, snap);
  } else {
    write_metrics_json(file, snap);
  }
  if (!file.good()) throw std::runtime_error("write failed: " + path);
}

void write_chrome_trace_file(const std::string& path) {
  std::ofstream file(path);
  if (!file.good()) {
    throw std::runtime_error("cannot open for writing: " + path);
  }
  write_chrome_trace(file);
  if (!file.good()) throw std::runtime_error("write failed: " + path);
}

}  // namespace eio::obs
