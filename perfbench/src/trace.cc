#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

double Tracer::Now() const {
  return ToSeconds(std::chrono::steady_clock::now());
}

double Tracer::ToSeconds(std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration<double>(t - epoch_).count();
}

int64_t Tracer::Add(std::string name, double start, double end,
                    int64_t parent, int64_t request) {
  if (!enabled_) return 0;
  camal::MutexLock lock(&mu_);
  const auto id = static_cast<int64_t>(spans_.size()) + 1;
  spans_.push_back({std::move(name), start, end, id, parent, request});
  return id;
}

int64_t Tracer::Begin(std::string name, int64_t parent, int64_t request) {
  if (!enabled_) return 0;
  const double now = Now();
  return Add(std::move(name), now, now, parent, request);
}

void Tracer::End(int64_t id) {
  if (!enabled_ || id == 0) return;
  const double now = Now();
  camal::MutexLock lock(&mu_);
  spans_[static_cast<size_t>(id - 1)].end = now;
}

std::vector<Span> Tracer::spans() const {
  camal::MutexLock lock(&mu_);
  return spans_;
}

std::vector<double> ComputeSelfSeconds(const std::vector<Span>& spans) {
  std::map<int64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const Span& p = spans[it->second];
    const double lo = std::max(s.start, p.start);
    const double hi = std::min(s.end, p.end);
    if (hi > lo) children[it->second].push_back({lo, hi});
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    for (const auto& [lo, hi] : iv) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = std::max(0.0, spans[i].end - spans[i].start - covered);
  }
  return self;
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = ComputeSelfSeconds(all);
  std::map<std::string, double> out;
  for (size_t i = 0; i < all.size(); ++i) out[all[i].name] += self[i];
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\": [\n", f);
  const std::vector<Span> all = spans();
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    // Rows: one per request, row 0 for spans outside any request.
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %lld, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %lld, \"parent\": %lld, \"request\": %lld, "
                 "\"start_us\": %.3f, \"end_us\": %.3f}}%s\n",
                 s.name.c_str(), static_cast<long long>(s.request),
                 s.start * 1e6, (s.end - s.start) * 1e6,
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request), s.start * 1e6,
                 s.end * 1e6, i + 1 < all.size() ? "," : "");
  }
  std::fputs("],\n\"displayTimeUnit\": \"ms\"}\n", f);
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
