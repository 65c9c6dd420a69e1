#include "fault/plan.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace eio::fault {

namespace {

void reject_unknown_keys(const json::Object& o,
                         std::initializer_list<const char*> known,
                         const char* where) {
  for (const auto& [key, value] : o) {
    (void)value;
    bool ok = false;
    for (const char* k : known) {
      if (key == k) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      throw std::runtime_error(std::string("fault plan: unknown key '") + key +
                               "' in " + where);
    }
  }
}

[[nodiscard]] double checked_probability(const json::Value& v, const char* where) {
  double p = v.number_or("probability", 0.0);
  if (p < 0.0 || p > 1.0) {
    throw std::runtime_error(std::string("fault plan: ") + where +
                             ".probability must be in [0, 1]");
  }
  return p;
}

void write_number(std::ostream& os, double v) {
  // Round-trip integers without a trailing ".0"-less mismatch surprise.
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    os << static_cast<long long>(v);
  } else {
    std::ostringstream tmp;
    tmp.precision(17);
    tmp << v;
    os << tmp.str();
  }
}

}  // namespace

Plan plan_from_json(const json::Value& v) {
  Plan plan;
  const json::Object& root = v.as_object();
  reject_unknown_keys(root, {"slow_osts", "jitter", "transient", "stragglers"},
                      "faults");

  if (v.has("slow_osts")) {
    for (const json::Value& e : v.at("slow_osts").as_array()) {
      reject_unknown_keys(e.as_object(), {"ost", "factor", "from", "until"},
                          "faults.slow_osts[]");
      SlowOst s;
      s.ost = static_cast<OstId>(e.number_or("ost", 0.0));
      s.factor = e.number_or("factor", 0.25);
      s.from = e.number_or("from", 0.0);
      s.until = e.number_or("until", kForever);
      if (s.factor <= 0.0) {
        throw std::runtime_error("fault plan: slow_osts[].factor must be > 0");
      }
      if (s.until <= s.from) {
        throw std::runtime_error(
            "fault plan: slow_osts[] window must have until > from");
      }
      plan.slow_osts.push_back(s);
    }
  }

  if (v.has("jitter")) {
    const json::Value& j = v.at("jitter");
    reject_unknown_keys(j.as_object(),
                        {"probability", "mean_stall", "reads", "writes"},
                        "faults.jitter");
    plan.jitter.probability = checked_probability(j, "jitter");
    plan.jitter.mean_stall = j.number_or("mean_stall", plan.jitter.mean_stall);
    plan.jitter.reads = j.bool_or("reads", true);
    plan.jitter.writes = j.bool_or("writes", true);
  }

  if (v.has("transient")) {
    const json::Value& t = v.at("transient");
    reject_unknown_keys(t.as_object(),
                        {"probability", "max_retries", "timeout", "backoff"},
                        "faults.transient");
    plan.transient.probability = checked_probability(t, "transient");
    plan.transient.max_retries = static_cast<std::uint32_t>(
        t.number_or("max_retries", plan.transient.max_retries));
    plan.transient.timeout = t.number_or("timeout", plan.transient.timeout);
    plan.transient.backoff = t.number_or("backoff", plan.transient.backoff);
  }

  if (v.has("stragglers")) {
    const json::Value& s = v.at("stragglers");
    reject_unknown_keys(s.as_object(), {"count", "ranks", "slowdown"},
                        "faults.stragglers");
    plan.stragglers.count =
        static_cast<std::uint32_t>(s.number_or("count", 0.0));
    if (s.has("ranks")) {
      for (const json::Value& r : s.at("ranks").as_array()) {
        plan.stragglers.ranks.push_back(static_cast<RankId>(r.as_number()));
      }
    }
    plan.stragglers.slowdown = s.number_or("slowdown", plan.stragglers.slowdown);
    if (plan.stragglers.slowdown < 1.0) {
      throw std::runtime_error("fault plan: stragglers.slowdown must be >= 1");
    }
  }

  return plan;
}

std::string plan_to_json(const Plan& plan, const std::string& indent) {
  std::ostringstream os;
  const std::string in1 = indent + "  ";
  const std::string in2 = indent + "    ";
  os << "{";
  bool first = true;
  auto clause = [&](const char* name) {
    os << (first ? "\n" : ",\n") << in1 << '"' << name << "\": ";
    first = false;
  };

  if (!plan.slow_osts.empty()) {
    clause("slow_osts");
    os << "[";
    for (std::size_t i = 0; i < plan.slow_osts.size(); ++i) {
      const SlowOst& s = plan.slow_osts[i];
      os << (i == 0 ? "\n" : ",\n") << in2 << "{\"ost\": " << s.ost
         << ", \"factor\": ";
      write_number(os, s.factor);
      os << ", \"from\": ";
      write_number(os, s.from);
      if (s.until < kForever) {
        os << ", \"until\": ";
        write_number(os, s.until);
      }
      os << "}";
    }
    os << "\n" << in1 << "]";
  }
  if (plan.jitter.probability > 0.0) {
    clause("jitter");
    os << "{\"probability\": ";
    write_number(os, plan.jitter.probability);
    os << ", \"mean_stall\": ";
    write_number(os, plan.jitter.mean_stall);
    os << ", \"reads\": " << (plan.jitter.reads ? "true" : "false")
       << ", \"writes\": " << (plan.jitter.writes ? "true" : "false") << "}";
  }
  if (plan.transient.probability > 0.0) {
    clause("transient");
    os << "{\"probability\": ";
    write_number(os, plan.transient.probability);
    os << ", \"max_retries\": " << plan.transient.max_retries
       << ", \"timeout\": ";
    write_number(os, plan.transient.timeout);
    os << ", \"backoff\": ";
    write_number(os, plan.transient.backoff);
    os << "}";
  }
  if (plan.stragglers.count > 0 || !plan.stragglers.ranks.empty()) {
    clause("stragglers");
    os << "{";
    if (!plan.stragglers.ranks.empty()) {
      os << "\"ranks\": [";
      for (std::size_t i = 0; i < plan.stragglers.ranks.size(); ++i) {
        os << (i == 0 ? "" : ", ") << plan.stragglers.ranks[i];
      }
      os << "], ";
    } else {
      os << "\"count\": " << plan.stragglers.count << ", ";
    }
    os << "\"slowdown\": ";
    write_number(os, plan.stragglers.slowdown);
    os << "}";
  }
  if (first) return "{}";
  os << "\n" << indent << "}";
  return os.str();
}

}  // namespace eio::fault
