#include "model/buffer_sim.hpp"

namespace teaal::model
{

bool
LruCache::access(const void* key, double bytes)
{
    counters_.accessBytes += bytes;
    const auto it = index_.find(key);
    if (it != index_.end()) {
        // Hit: move to the front.
        lru_.splice(lru_.begin(), lru_, it->second);
        ++counters_.hits;
        return true;
    }
    ++counters_.misses;
    counters_.fillBytes += bytes;
    if (capacity_ > 0) {
        while (occupied_ + bytes > capacity_ && !lru_.empty()) {
            const Entry& victim = lru_.back();
            occupied_ -= victim.bytes;
            index_.erase(victim.key);
            lru_.pop_back();
        }
    }
    lru_.push_front({key, bytes});
    index_[key] = lru_.begin();
    occupied_ += bytes;
    return false;
}

void
LruCache::reset()
{
    lru_.clear();
    index_.clear();
    occupied_ = 0;
}

bool
Buffet::read(std::uint64_t key, double bytes)
{
    counters_.accessBytes += bytes;
    const auto [entry, inserted] =
        resident_.tryEmplace(key, Entry{bytes, false, false});
    (void)entry;
    if (!inserted) {
        ++counters_.hits;
        return true;
    }
    ++counters_.misses;
    counters_.fillBytes += bytes;
    resident_bytes_ += bytes;
    return false;
}

bool
Buffet::write(std::uint64_t key, double bytes, bool first)
{
    counters_.accessBytes += bytes;
    if (!drained_) {
        // Nothing written has left yet, so a later write hits.
        if (first) {
            untrackedWrites_ = true;
            untrackedWriteBytes_ += bytes;
            resident_bytes_ += bytes;
        } else {
            ++counters_.hits;
        }
        return false;
    }
    const auto [entry, inserted] =
        resident_.tryEmplace(key, Entry{bytes, true, !first});
    if (!inserted) {
        entry->written = true;
        ++counters_.hits;
        return false;
    }
    resident_bytes_ += bytes;
    if (first)
        return false;
    // Written before and not resident: drained, so this re-fetches
    // the partial output from the parent level.
    counters_.fillBytes += bytes;
    ++counters_.misses;
    return true;
}

Buffet::DrainResult
Buffet::evictAll()
{
    DrainResult result;
    if (untrackedWrites_) {
        counters_.drainBytes += untrackedWriteBytes_;
        result.firstBytes += untrackedWriteBytes_;
        drained_ = true;
        untrackedWrites_ = false;
        untrackedWriteBytes_ = 0;
    }
    for (const auto& e : resident_.entries()) {
        if (e.value.written) {
            counters_.drainBytes += e.value.bytes;
            if (e.value.revisit)
                result.againBytes += e.value.bytes;
            else
                result.firstBytes += e.value.bytes;
        }
    }
    resident_.clear();
    resident_bytes_ = 0;
    return result;
}

void
Buffet::reset()
{
    resident_.clear();
    resident_bytes_ = 0;
    drained_ = false;
    untrackedWrites_ = false;
    untrackedWriteBytes_ = 0;
}

} // namespace teaal::model
