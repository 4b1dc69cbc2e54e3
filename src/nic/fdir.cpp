#include "nic/fdir.hpp"

#include "base/bytes.hpp"
#include "base/hash.hpp"
#include "faultinject/faultinject.hpp"

namespace scap::nic {

std::uint64_t FdirTable::tuple_key(const FiveTuple& t) {
  struct Key {
    std::uint32_t a, b;
    std::uint16_t c, d;
    std::uint8_t e;
    std::uint8_t pad[3];
  } key{t.src_ip, t.dst_ip, t.src_port, t.dst_port, t.protocol, {0, 0, 0}};
  return fnv1a_of(key);
}

std::uint64_t FdirTable::add(const FdirFilter& filter,
                             std::optional<FdirFilter>* evicted) {
  if (evicted) evicted->reset();
  // Injected hardware programming failure (a real ixgbe fdir_write can
  // fail): id 0 tells the caller the filter was NOT installed.
  if (faultinject::should_fail(faultinject::FaultPoint::kFdirAdd)) {
    ++add_failures_;
    return 0;
  }
  if (by_id_.size() >= capacity_) {
    // Evict the filter closest to expiry.
    auto soon = by_timeout_.begin();
    if (soon == by_timeout_.end()) {
      ++add_failures_;  // capacity 0: nothing to evict, nothing to install
      return 0;
    }
    auto it = by_id_.find(soon->second);
    if (evicted && it != by_id_.end()) *evicted = it->second.filter;
    if (it != by_id_.end()) erase_entry(it);
    ++evictions_;
  }
  const std::uint64_t id = next_id_++;
  auto timeout_it = by_timeout_.emplace(filter.expires.ns(), id);
  by_id_.emplace(id, Entry{filter, timeout_it});
  by_tuple_[tuple_key(filter.tuple)].push_back(id);
  return id;
}

void FdirTable::erase_entry(
    std::unordered_map<std::uint64_t, Entry>::iterator it) {
  const std::uint64_t id = it->first;
  by_timeout_.erase(it->second.timeout_it);
  auto& ids = by_tuple_[tuple_key(it->second.filter.tuple)];
  std::erase(ids, id);
  if (ids.empty()) by_tuple_.erase(tuple_key(it->second.filter.tuple));
  by_id_.erase(it);
}

bool FdirTable::remove(std::uint64_t id) {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) return false;
  erase_entry(it);
  return true;
}

std::size_t FdirTable::remove_tuple(const FiveTuple& tuple) {
  auto t = by_tuple_.find(tuple_key(tuple));
  if (t == by_tuple_.end()) return 0;
  // Copy: erase_entry mutates the by_tuple_ vector.
  const std::vector<std::uint64_t> ids = t->second;
  std::size_t removed = 0;
  for (std::uint64_t id : ids) {
    auto it = by_id_.find(id);
    if (it != by_id_.end() && it->second.filter.tuple == tuple) {
      erase_entry(it);
      ++removed;
    }
  }
  return removed;
}

const FdirFilter* FdirTable::match(const Packet& pkt) const {
  // Most receive paths run with no filter installed: skip the tuple hash
  // and the map probe for every packet.
  if (by_tuple_.empty()) return nullptr;
  auto t = by_tuple_.find(tuple_key(pkt.tuple()));
  if (t == by_tuple_.end()) return nullptr;
  const auto frame = pkt.frame();
  for (std::uint64_t id : t->second) {
    auto it = by_id_.find(id);
    if (it == by_id_.end()) continue;
    const FdirFilter& f = it->second.filter;
    if (!(f.tuple == pkt.tuple())) continue;  // hash collision guard
    if (f.has_flex) {
      if (frame.size() < static_cast<std::size_t>(f.flex_offset) + 2) continue;
      const std::uint16_t halfword = load_be16(frame.data() + f.flex_offset);
      if ((halfword & f.flex_mask) != (f.flex_value & f.flex_mask)) continue;
    }
    return &f;
  }
  return nullptr;
}

std::vector<FdirFilter> FdirTable::expire(Timestamp now) {
  std::vector<FdirFilter> expired;
  while (!by_timeout_.empty() && by_timeout_.begin()->first <= now.ns()) {
    auto it = by_id_.find(by_timeout_.begin()->second);
    if (it == by_id_.end()) {
      by_timeout_.erase(by_timeout_.begin());
      continue;
    }
    expired.push_back(it->second.filter);
    erase_entry(it);
  }
  return expired;
}

std::vector<FdirFilter> make_cutoff_filters(const FiveTuple& tuple,
                                            Timestamp expires) {
  // Match the TCP flags byte (low 6 bits of the flags halfword: URG ACK PSH
  // RST SYN FIN). Two filters: flags == ACK, and flags == ACK|PSH. Anything
  // carrying SYN, FIN, or RST fails both matches and reaches the host.
  std::vector<FdirFilter> filters;
  for (std::uint16_t flags : {std::uint16_t{kTcpAck},
                              std::uint16_t{kTcpAck | kTcpPsh}}) {
    FdirFilter f;
    f.tuple = tuple;
    f.action = FdirAction::kDrop;
    f.has_flex = true;
    f.flex_offset = kTcpFlagsFlexOffset;
    f.flex_value = flags;
    f.flex_mask = 0x003f;  // the six flag bits
    f.expires = expires;
    // scap-lint: allow(hot-alloc) per-stream filter install (four filters per cutoff decision), not per packet (DESIGN.md §14 inventory)
    filters.push_back(f);
  }
  return filters;
}

}  // namespace scap::nic
