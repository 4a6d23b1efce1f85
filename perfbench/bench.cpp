#include "bench.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench {
namespace {

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Series::block_quantile(double q, double across) const {
  std::vector<double> per_block;
  for (std::size_t b = 0; b < starts.size(); ++b) {
    const std::size_t lo = starts[b];
    const std::size_t hi = b + 1 < starts.size() ? starts[b + 1]
                                                 : values.size();
    if (lo >= hi) continue;
    std::vector<double> block(values.begin() + static_cast<std::ptrdiff_t>(lo),
                              values.begin() + static_cast<std::ptrdiff_t>(hi));
    per_block.push_back(quantile(block, q));
  }
  return quantile(per_block, across);
}

std::size_t ByPosition::size() const {
  std::size_t n = 0;
  for (const std::vector<double>& r : rounds) n += r.size();
  return n;
}

std::vector<double> ByPosition::per_position(double across) const {
  std::vector<double> out;
  for (std::vector<double> r : rounds) {
    if (!r.empty()) out.push_back(perfbench::quantile(r, across));
  }
  return out;
}

double ByPosition::quantile(double q, double across) const {
  std::vector<double> v = per_position(across);
  return perfbench::quantile(v, q);
}

double ByPosition::sum(double across) const {
  double total = 0.0;
  for (const double x : per_position(across)) total += x;
  return total;
}

bool Report::check(std::string_view name, bool ok) {
  auto it = checks_.find(name);
  if (it == checks_.end()) {
    it = checks_.emplace(std::string{name}, std::pair{0ULL, 0ULL}).first;
  }
  if (ok) {
    ++it->second.first;
  } else {
    ++it->second.second;
    if (it->second.second <= 3) {
      std::fprintf(stderr, "correctness check failed: %s\n",
                   std::string{name}.c_str());
    }
    fail();
  }
  return ok;
}

void Report::set(const std::string& name, double value, std::string unit,
                 std::size_t samples, bool modeled) {
  metrics_[name] = Metric{value, std::move(unit), modeled, samples};
}

void Report::print_table(const char* title) const {
  std::printf("-- %s --\n", title);
  for (const auto& [name, m] : metrics_) {
    std::printf("  %-36s %16.6g %-6s %-8s n=%zu\n", name.c_str(), m.value,
                m.unit.c_str(), m.modeled ? "modeled" : "measured",
                m.samples);
  }
  for (const auto& [name, counts] : checks_) {
    std::printf("  check %-30s passed=%llu failed=%llu\n", name.c_str(),
                static_cast<unsigned long long>(counts.first),
                static_cast<unsigned long long>(counts.second));
  }
  std::printf("  attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
}

std::string Report::json() const {
  std::ostringstream os;
  os << "{\"correct\":" << (correct() ? "true" : "false")
     << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
     << ",\"checks\":{";
  bool first = true;
  for (const auto& [name, counts] : checks_) {
    os << (first ? "" : ",") << json_string(name) << ":{\"passed\":"
       << counts.first << ",\"failed\":" << counts.second << "}";
    first = false;
  }
  os << "},\"metrics\":{";
  first = true;
  for (const auto& [name, m] : metrics_) {
    os << (first ? "" : ",") << json_string(name)
       << ":{\"value\":" << json_number(m.value)
       << ",\"unit\":" << json_string(m.unit) << ",\"kind\":"
       << (m.modeled ? "\"modeled\"" : "\"measured\"")
       << ",\"samples\":" << m.samples << "}";
    first = false;
  }
  os << "},\"notes\":{";
  first = true;
  for (const auto& [key, value] : notes_) {
    os << (first ? "" : ",") << json_string(key) << ":" << json_string(value);
    first = false;
  }
  os << "}}";
  return os.str();
}

void Tracer::record(const char* layer, const char* name,
                    std::int64_t start_ns, std::int64_t end_ns,
                    std::uint64_t op) {
  if (!enabled_) return;
  Total& t = totals_[name];
  ++t.count;
  t.ns += end_ns - start_ns;
  ++recorded_;
  if (t.count <= spans_per_name_) {
    spans_.push_back(Span{layer, name, start_ns, end_ns - start_ns, op});
  }
}

Tracer::Total Tracer::total(std::string_view name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? Total{} : it->second;
}

double Tracer::mean_ns(std::string_view name) const {
  const Total t = total(name);
  return t.count == 0 ? 0.0
                      : static_cast<double>(t.ns) /
                            static_cast<double>(t.count);
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out{path};
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  for (const Span& s : spans_) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu}}",
                  first ? "" : ",\n", s.name, s.layer,
                  static_cast<double>(s.start_ns - origin_ns_) / 1e3,
                  static_cast<double>(s.dur_ns) / 1e3,
                  static_cast<unsigned long long>(s.op));
    out << buf;
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
