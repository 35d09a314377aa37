#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

namespace perfbench {

uint64_t
SpanRecorder::record(const std::string &name, uint64_t startNs,
                     uint64_t endNs, uint64_t parent)
{
    if (!enabled_) {
        return 0;
    }
    uint64_t id = reserveId();
    recordWithId(id, name, startNs, endNs, parent);
    return id;
}

uint64_t
SpanRecorder::reserveId()
{
    std::lock_guard<std::mutex> lock(mtx_);
    return nextId_++;
}

void
SpanRecorder::recordWithId(uint64_t id, const std::string &name,
                           uint64_t startNs, uint64_t endNs,
                           uint64_t parent)
{
    std::lock_guard<std::mutex> lock(mtx_);
    spans_.push_back(Span{name, startNs, endNs, id, parent});
}

std::vector<Span>
SpanRecorder::snapshot() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    return spans_;
}

std::vector<double>
SpanRecorder::durationsMs(const std::string &name) const
{
    std::vector<double> out;
    std::lock_guard<std::mutex> lock(mtx_);
    for (const Span &s : spans_) {
        if (s.name == name) {
            out.push_back(static_cast<double>(s.endNs - s.startNs) *
                          1e-6);
        }
    }
    return out;
}

double
SpanRecorder::unattributedFrac(const std::string &rootName) const
{
    std::vector<Span> spans = snapshot();
    std::map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>> kids;
    for (const Span &s : spans) {
        if (s.parent != 0) {
            kids[s.parent].emplace_back(s.startNs, s.endNs);
        }
    }
    double sum = 0;
    size_t roots = 0;
    for (const Span &root : spans) {
        if (root.name != rootName || root.endNs <= root.startNs) {
            continue;
        }
        std::vector<std::pair<uint64_t, uint64_t>> iv = kids[root.id];
        std::sort(iv.begin(), iv.end());
        uint64_t covered = 0;
        uint64_t cursor = root.startNs;
        for (auto [a, b] : iv) {
            a = std::max(a, cursor);
            b = std::min(b, root.endNs);
            if (b > a) {
                covered += b - a;
                cursor = b;
            }
        }
        double dur = static_cast<double>(root.endNs - root.startNs);
        sum += 1.0 - static_cast<double>(covered) / dur;
        ++roots;
    }
    return roots == 0 ? -1.0 : sum / static_cast<double>(roots);
}

bool
SpanRecorder::writeJson(const std::string &path) const
{
    std::vector<Span> spans = snapshot();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    uint64_t t0 = spans.empty() ? 0 : spans.front().startNs;
    for (const Span &s : spans) {
        t0 = std::min(t0, s.startNs);
    }
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "  {\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                     "\"start_us\": %.3f, \"end_us\": %.3f}%s\n",
                     s.name.c_str(), static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<double>(s.startNs - t0) * 1e-3,
                     static_cast<double>(s.endNs - t0) * 1e-3,
                     i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
