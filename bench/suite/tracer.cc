#include "tracer.hh"

#include <cstring>

namespace socbench
{

Tracer::Tracer()
    : wallStart_(std::chrono::steady_clock::now()),
      tickStart_(now())
{
    nodes_.emplace_back(); // root: parent of top-level spans
    stack_.reserve(32);
}

void
Tracer::finish()
{
    const auto wall_end = std::chrono::steady_clock::now();
    const std::uint64_t tick_end = now();
    wallS_ =
        std::chrono::duration<double>(wall_end - wallStart_).count();
    if (tick_end > tickStart_ && wallS_ > 0.0) {
        secondsPerTick_ =
            wallS_ / static_cast<double>(tick_end - tickStart_);
    }
}

int
Tracer::child(int parent, const char *name)
{
    const auto &children = nodes_[static_cast<std::size_t>(parent)].children;
    // Literals usually share one address; compare text only when
    // no child matches by address.
    for (const int c : children)
        if (nodes_[static_cast<std::size_t>(c)].name == name)
            return c;
    for (const int c : children)
        if (std::strcmp(nodes_[static_cast<std::size_t>(c)].name, name) == 0)
            return c;
    const int id = static_cast<int>(nodes_.size());
    Node node;
    node.name = name;
    node.parent = parent;
    nodes_.push_back(std::move(node));
    nodes_[static_cast<std::size_t>(parent)].children.push_back(id);
    return id;
}

void
Tracer::begin(const char *name, bool coarse)
{
    const int parent = stack_.empty() ? 0 : stack_.back().node;
    Frame frame;
    frame.node = child(parent, name);
    if (coarse) {
        int parent_coarse = -1;
        for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
            if (it->coarse >= 0) {
                parent_coarse = it->coarse;
                break;
            }
        }
        frame.coarse = static_cast<int>(coarse_.size());
        coarse_.push_back({frame.node, parent_coarse, 0, 0});
    }
    stack_.push_back(frame);
    // Read the clock last so the bookkeeping above is charged to the
    // parent, not to the span being opened.
    stack_.back().start = now();
    if (coarse)
        coarse_.back().start = stack_.back().start;
}

void
Tracer::pop(std::uint64_t at)
{
    const Frame frame = stack_.back();
    stack_.pop_back();
    const std::uint64_t dur = at - frame.start;
    Node &node = nodes_[static_cast<std::size_t>(frame.node)];
    ++node.count;
    node.total += dur;
    node.self += dur - frame.child;
    if (!stack_.empty())
        stack_.back().child += dur;
    if (frame.coarse >= 0)
        coarse_[static_cast<std::size_t>(frame.coarse)].end = at;
}

double
Tracer::selfS(const std::string &name) const
{
    std::uint64_t ticks = 0;
    for (const auto &node : nodes_)
        if (name == node.name)
            ticks += node.self;
    return seconds(ticks);
}

std::uint64_t
Tracer::calls(const std::string &name) const
{
    std::uint64_t n = 0;
    for (const auto &node : nodes_)
        if (name == node.name)
            n += node.count;
    return n;
}

double
Tracer::layerSelfS(const std::string &layer) const
{
    const std::string prefix = layer + ".";
    std::uint64_t ticks = 0;
    for (const auto &node : nodes_)
        if (std::strncmp(node.name, prefix.c_str(), prefix.size()) == 0)
            ticks += node.self;
    return seconds(ticks);
}

double
Tracer::allSelfS() const
{
    std::uint64_t ticks = 0;
    for (const auto &node : nodes_)
        ticks += node.self;
    return seconds(ticks);
}

std::string
Tracer::path(int node) const
{
    std::string out;
    for (int n = node; n > 0; n = nodes_[static_cast<std::size_t>(n)].parent) {
        const std::string name = nodes_[static_cast<std::size_t>(n)].name;
        out = out.empty() ? name : name + "/" + out;
    }
    return out;
}

void
Tracer::writeJsonl(std::FILE *out) const
{
    for (std::size_t i = 0; i < coarse_.size(); ++i) {
        const Coarse &span = coarse_[i];
        std::fprintf(out,
                     "{\"kind\": \"span\", \"id\": %zu, \"name\": \"%s\", "
                     "\"parent\": %d, \"path\": \"%s\", "
                     "\"start_s\": %.9f, \"end_s\": %.9f}\n",
                     i, nodes_[static_cast<std::size_t>(span.node)].name,
                     span.parent, path(span.node).c_str(),
                     seconds(span.start - tickStart_),
                     seconds(span.end - tickStart_));
    }
    for (std::size_t i = 1; i < nodes_.size(); ++i) {
        const Node &node = nodes_[i];
        std::fprintf(out,
                     "{\"kind\": \"agg\", \"name\": \"%s\", "
                     "\"parent\": \"%s\", \"count\": %llu, "
                     "\"total_s\": %.9f, \"self_s\": %.9f}\n",
                     node.name, path(node.parent).c_str(),
                     static_cast<unsigned long long>(node.count),
                     seconds(node.total), seconds(node.self));
    }
}

} // namespace socbench
