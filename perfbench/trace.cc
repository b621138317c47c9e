#include <algorithm>
#include <cstdio>
#include <fstream>

#include "bench.hh"

namespace nsbench::perfbench
{

uint64_t
SpanLog::reserve()
{
    if (!enabled_)
        return 0;
    std::lock_guard<std::mutex> lock(mu_);
    return nextId_++;
}

uint64_t
SpanLog::add(uint64_t trace, uint64_t parent, const char *layer,
             const std::string &name, double t0, double t1, uint64_t id)
{
    if (!enabled_)
        return 0;
    double start = now();
    std::lock_guard<std::mutex> lock(mu_);
    if (id == 0)
        id = nextId_++;
    spans_.push_back(Span{trace, id, parent, layer, name, t0, t1});
    cost_ += now() - start;
    return id;
}

double
SpanLog::costSeconds() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return cost_;
}

std::map<uint64_t, double>
SpanLog::selfById() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::map<uint64_t, std::vector<std::pair<double, double>>> children;
    for (const Span &s : spans_)
        if (s.parent != 0)
            children[s.parent].emplace_back(s.t0, s.t1);
    std::map<uint64_t, double> self;
    for (const Span &s : spans_) {
        double covered = 0.0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            // Union of the children's intervals, clipped to the parent.
            auto kids = it->second;
            std::sort(kids.begin(), kids.end());
            double end = s.t0;
            for (auto [a, b] : kids) {
                a = std::max(a, end);
                b = std::min(b, s.t1);
                if (b > a) {
                    covered += b - a;
                    end = b;
                }
            }
        }
        self[s.id] = std::max(0.0, (s.t1 - s.t0) - covered);
    }
    return self;
}

std::map<std::string, double>
SpanLog::selfSeconds() const
{
    std::map<uint64_t, double> self = selfById();
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, double> byLayer;
    for (const Span &s : spans_)
        byLayer[s.layer] += self[s.id];
    return byLayer;
}

double
SpanLog::selfSecondsOf(const std::string &name) const
{
    std::map<uint64_t, double> self = selfById();
    std::lock_guard<std::mutex> lock(mu_);
    double total = 0.0;
    for (const Span &s : spans_)
        if (s.name == name)
            total += self[s.id];
    return total;
}

bool
SpanLog::writeChrome(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    // Episode spans nest on one thread row as complete events; each
    // request's tree overlaps other requests, so it becomes a nested
    // async event chain keyed by its trace id.
    out << "{\"traceEvents\": [\n";
    char buf[512];
    bool first = true;
    auto emit = [&](const char *text) {
        out << (first ? "" : ",\n") << text;
        first = false;
    };
    for (const Span &s : spans_) {
        double ts = s.t0 * 1e6;
        double dur = (s.t1 - s.t0) * 1e6;
        if (s.trace == 0) {
            std::snprintf(buf, sizeof(buf),
                          "{\"name\": \"%s\", \"cat\": \"%s\", "
                          "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                          "\"ts\": %.3f, \"dur\": %.3f, "
                          "\"args\": {\"span\": %llu, \"parent\": %llu}}",
                          s.name.c_str(), s.layer.c_str(), ts, dur,
                          static_cast<unsigned long long>(s.id),
                          static_cast<unsigned long long>(s.parent));
            emit(buf);
            continue;
        }
        for (const char *ph : {"b", "e"}) {
            std::snprintf(buf, sizeof(buf),
                          "{\"name\": \"%s\", \"cat\": \"%s\", "
                          "\"ph\": \"%s\", \"pid\": 1, \"tid\": 2, "
                          "\"id\": %llu, \"ts\": %.3f, "
                          "\"args\": {\"span\": %llu, \"parent\": %llu}}",
                          s.name.c_str(), s.layer.c_str(), ph,
                          static_cast<unsigned long long>(s.trace),
                          ph[0] == 'b' ? ts : ts + dur,
                          static_cast<unsigned long long>(s.id),
                          static_cast<unsigned long long>(s.parent));
            emit(buf);
        }
    }
    out << "\n], \"displayTimeUnit\": \"ms\"}\n";
    return static_cast<bool>(out);
}

} // namespace nsbench::perfbench
