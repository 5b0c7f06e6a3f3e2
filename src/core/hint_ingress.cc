#include "core/hint_ingress.hh"

#include <algorithm>
#include <cassert>
#include <utility>

namespace soc
{
namespace core
{

namespace
{

/** SplitMix64's finalizer: every input bit reaches the low bits a
 *  power-of-two table masks to. */
std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

/** Server, VM and kind folded into one word, before mixing. */
std::uint64_t
foldFlow(int server, std::int32_t vm, std::uint8_t kind)
{
    const std::uint64_t ids =
        (std::uint64_t{static_cast<std::uint32_t>(server)} << 32) |
        static_cast<std::uint32_t>(vm);
    return ids + std::uint64_t{kind} * 0x9e3779b97f4a7c15ULL;
}

/** First allocation of a table; it doubles from there. */
constexpr std::size_t kMinSlots = 16;

} // namespace

std::uint64_t
HintIngress::FlowKey::hash() const
{
    return mix64(foldFlow(server, vm, kind));
}

std::uint64_t
HintIngress::DupKey::hash() const
{
    return mix64(foldFlow(flow.server, flow.vm, flow.kind) ^
                 seq * 0xc2b2ae3d27d4eb4fULL);
}

template <class Key>
std::size_t
HintIngress::CountTable<Key>::probe(const Key &key) const
{
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(key.hash()) & mask;
    while (occupied(i) && !(slots_[i].key == key))
        i = (i + 1) & mask;
    return i;
}

template <class Key>
std::uint32_t
HintIngress::CountTable<Key>::count(const Key &key) const
{
    if (slots_.empty())
        return 0;
    const std::size_t i = probe(key);
    return occupied(i) ? slots_[i].count : 0;
}

template <class Key>
std::uint32_t
HintIngress::CountTable<Key>::increment(const Key &key)
{
    if (2 * (live_ + 1) > slots_.size())
        grow();
    const std::size_t i = probe(key);
    Slot &slot = slots_[i];
    if (!occupied(i)) {
        slot.key = key;
        slot.count = 0;
        slot.epoch = epoch_;
        ++live_;
    }
    return ++slot.count;
}

template <class Key>
std::uint32_t
HintIngress::CountTable<Key>::decrement(const Key &key)
{
    if (slots_.empty())
        return 0;
    std::size_t hole = probe(key);
    if (!occupied(hole))
        return 0;
    if (--slots_[hole].count > 0)
        return slots_[hole].count;

    // Backward-shift deletion: walk the rest of the probe run and
    // pull back every key whose home slot is not between the hole
    // and its current slot, so every probe run stays unbroken.
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; occupied(j);
         j = (j + 1) & mask) {
        const std::size_t home =
            static_cast<std::size_t>(slots_[j].key.hash()) & mask;
        if (((j - home) & mask) >= ((j - hole) & mask)) {
            slots_[hole] = slots_[j];
            hole = j;
        }
    }
    slots_[hole].epoch = 0;
    --live_;
    return 0;
}

template <class Key>
void
HintIngress::CountTable<Key>::clear()
{
    live_ = 0;
    if (++epoch_ != 0)
        return;
    // Epoch wrapped: stale slots could alias the new epoch.
    for (Slot &slot : slots_)
        slot.epoch = 0;
    epoch_ = 1;
}

template <class Key>
void
HintIngress::CountTable<Key>::grow()
{
    std::vector<Slot> old(std::max(kMinSlots, 2 * slots_.size()));
    old.swap(slots_);
    const std::uint32_t old_epoch = epoch_;
    epoch_ = 1;
    const std::size_t mask = slots_.size() - 1;
    for (const Slot &slot : old) {
        if (slot.epoch != old_epoch)
            continue;
        std::size_t i = static_cast<std::size_t>(slot.key.hash()) & mask;
        while (occupied(i))
            i = (i + 1) & mask;
        slots_[i] = slot;
        slots_[i].epoch = epoch_;
    }
}

HintIngress::HintIngress(HintIngressConfig config)
    : config_(config), pending_(config.queueCapacity),
      draining_(config.queueCapacity)
{
    config_.validate();
}

std::size_t
HintIngress::depth() const
{
    return pending_.size() + draining_.size();
}

HintIngress::FlowKey
HintIngress::flowKey(const wire::ParsedHint &h)
{
    return FlowKey{h.server, h.vmId,
                   static_cast<std::uint8_t>(h.kind)};
}

HintIngress::DupKey
HintIngress::dupKey(const wire::ParsedHint &h)
{
    return DupKey{flowKey(h), h.seq};
}

void
HintIngress::noteDepth()
{
    const std::uint64_t d = static_cast<std::uint64_t>(depth());
    if (d > stats_.maxDepth)
        stats_.maxDepth = d;
}

/**
 * Oldest-duplicate-first: scan pending_ front-to-back for the first
 * entry whose flow has >= 2 queued entries and evict it (a newer
 * hint of the same flow supersedes it).  If every flow is unique,
 * evict the overall front.  Front-to-back scan order makes the
 * choice deterministic; the supersedable-flow counter makes the
 * common no-duplicate case O(1).  Removing the victim shifts the
 * shorter side of the ring, and deleting its keys keeps both tables
 * at the size of pending_ however long overflow lasts.
 */
void
HintIngress::evictForOverflow()
{
    assert(!pending_.empty());
    std::size_t victim = 0;
    bool superseded = false;
    if (supersedableFlows_ > 0) {
        for (std::size_t i = 0; i < pending_.size(); ++i) {
            if (flowCounts_.count(flowKey(pending_[i])) >= 2) {
                victim = i;
                superseded = true;
                break;
            }
        }
    }

    const DupKey key = dupKey(pending_[victim]);
    if (flowCounts_.decrement(key.flow) == 1)
        --supersedableFlows_;
    dupCounts_.decrement(key);

    pending_.erase(victim);
    ++stats_.overflowEvictions;
    if (superseded)
        ++stats_.overflowSuperseded;
}

wire::Reject
HintIngress::offer(const std::uint8_t *data, std::size_t len,
                   sim::Tick now)
{
    ++stats_.offered;

    wire::ParsedHint hint;
    const wire::Reject reject =
        wire::parseFrame(data, len, config_.limits, hint);
    if (reject != wire::Reject::None) {
        ++stats_.parseRejects;
        ++stats_.rejectsByReason[static_cast<std::size_t>(reject)];
        return reject;
    }

    // Staleness is an ingress property (it needs "now"), not a wire
    // property: too old, or claiming to be from the future.
    if (config_.maxHintAge > 0 &&
        (hint.issuedAt > now ||
         now - hint.issuedAt > config_.maxHintAge)) {
        ++stats_.parseRejects;
        ++stats_.rejectsByReason[static_cast<std::size_t>(
            wire::Reject::Stale)];
        return wire::Reject::Stale;
    }

    // Exact duplicates (retransmits) are suppressed, not queued
    // twice.  Not a rejection: the original is still in flight.
    const DupKey key = dupKey(hint);
    if (dupCounts_.count(key) != 0) {
        ++stats_.duplicates;
        return wire::Reject::None;
    }

    if (pending_.size() >= config_.queueCapacity)
        evictForOverflow();

    pending_.push(hint);
    dupCounts_.increment(key);
    if (flowCounts_.increment(key.flow) == 2)
        ++supersedableFlows_;
    ++stats_.accepted;
    noteDepth();
    return wire::Reject::None;
}

std::size_t
HintIngress::drain(sim::Tick now, const Sink &sink)
{
    (void)now;
    if (draining_.empty()) {
        // Snapshot swap: everything queued so far becomes this
        // batch; offers made while the sink runs go to the fresh
        // pending_ and wait for the next drain.
        draining_.swap(pending_);
        dupCounts_.clear();
        flowCounts_.clear();
        supersedableFlows_ = 0;
    }
    if (draining_.empty())
        return 0;

    const std::size_t limit = config_.drainMax == 0
        ? draining_.size()
        : std::min(config_.drainMax, draining_.size());

    // The emptiness check ends the batch if the sink clear()s.
    std::size_t dispatched = 0;
    for (; dispatched < limit && !draining_.empty(); ++dispatched) {
        const wire::ParsedHint hint = draining_.pop();
        ++stats_.drained;
        if (!sink(hint))
            ++stats_.sinkDrops;
    }
    if (dispatched > 0)
        ++stats_.drainBatches;
    return dispatched;
}

void
HintIngress::clear()
{
    pending_.clear();
    draining_.clear();
    dupCounts_.clear();
    flowCounts_.clear();
    supersedableFlows_ = 0;
}

} // namespace core
} // namespace soc
