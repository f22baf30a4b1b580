#include "src/storage/bitmap.h"

#include <algorithm>
#include <bit>

#include "src/util/varint.h"

namespace gdbmicro {

bool Bitmap::Container::Contains(uint16_t low) const {
  if (dense) {
    return (bits[low >> 6] >> (low & 63)) & 1;
  }
  return std::binary_search(array.begin(), array.end(), low);
}

bool Bitmap::Container::Add(uint16_t low) {
  if (dense) {
    uint64_t& word = bits[low >> 6];
    uint64_t mask = 1ULL << (low & 63);
    if (word & mask) return false;
    word |= mask;
    return true;
  }
  auto it = std::lower_bound(array.begin(), array.end(), low);
  if (it != array.end() && *it == low) return false;
  array.insert(it, low);
  if (array.size() > kArrayLimit) ToDense();
  return true;
}

bool Bitmap::Container::Remove(uint16_t low) {
  if (dense) {
    uint64_t& word = bits[low >> 6];
    uint64_t mask = 1ULL << (low & 63);
    if (!(word & mask)) return false;
    word &= ~mask;
    return true;
  }
  auto it = std::lower_bound(array.begin(), array.end(), low);
  if (it == array.end() || *it != low) return false;
  array.erase(it);
  return true;
}

uint32_t Bitmap::Container::Cardinality() const {
  if (!dense) return static_cast<uint32_t>(array.size());
  uint32_t count = 0;
  for (uint64_t w : bits) count += static_cast<uint32_t>(std::popcount(w));
  return count;
}

void Bitmap::Container::ToDense() {
  bits.assign(kBitsetWords, 0);
  for (uint16_t v : array) bits[v >> 6] |= 1ULL << (v & 63);
  array.clear();
  array.shrink_to_fit();
  dense = true;
}

void Bitmap::Container::MaybeToArray() {
  if (!dense) return;
  uint32_t card = Cardinality();
  if (card > kArrayLimit / 2) return;
  std::vector<uint16_t> arr;
  arr.reserve(card);
  for (size_t w = 0; w < bits.size(); ++w) {
    uint64_t word = bits[w];
    while (word) {
      int b = std::countr_zero(word);
      arr.push_back(static_cast<uint16_t>((w << 6) | static_cast<size_t>(b)));
      word &= word - 1;
    }
  }
  array = std::move(arr);
  bits.clear();
  bits.shrink_to_fit();
  dense = false;
}

uint64_t Bitmap::Container::MemoryBytes() const {
  return sizeof(Container) + array.capacity() * sizeof(uint16_t) +
         bits.capacity() * sizeof(uint64_t);
}

bool Bitmap::Add(uint64_t id) {
  Container& c = containers_[static_cast<uint32_t>(id >> 16)];
  bool added = c.Add(static_cast<uint16_t>(id & 0xFFFF));
  if (added) ++cardinality_;
  return added;
}

bool Bitmap::Remove(uint64_t id) {
  auto it = containers_.find(static_cast<uint32_t>(id >> 16));
  if (it == containers_.end()) return false;
  bool removed = it->second.Remove(static_cast<uint16_t>(id & 0xFFFF));
  if (removed) {
    --cardinality_;
    if (it->second.Cardinality() == 0) {
      containers_.erase(it);
    } else {
      it->second.MaybeToArray();
    }
  }
  return removed;
}

bool Bitmap::Contains(uint64_t id) const {
  auto it = containers_.find(static_cast<uint32_t>(id >> 16));
  if (it == containers_.end()) return false;
  return it->second.Contains(static_cast<uint16_t>(id & 0xFFFF));
}

void Bitmap::ForEach(const std::function<bool(uint64_t)>& fn) const {
  for (const auto& [chunk, c] : containers_) {
    uint64_t base = static_cast<uint64_t>(chunk) << 16;
    if (c.dense) {
      for (size_t w = 0; w < c.bits.size(); ++w) {
        uint64_t word = c.bits[w];
        while (word) {
          int b = std::countr_zero(word);
          if (!fn(base | (w << 6) | static_cast<uint64_t>(b))) return;
          word &= word - 1;
        }
      }
    } else {
      for (uint16_t v : c.array) {
        if (!fn(base | v)) return;
      }
    }
  }
}

std::vector<uint64_t> Bitmap::ToVector() const {
  std::vector<uint64_t> out;
  out.reserve(cardinality_);
  ForEach([&](uint64_t id) {
    out.push_back(id);
    return true;
  });
  return out;
}

void Bitmap::UnionWith(const Bitmap& other) {
  other.ForEach([&](uint64_t id) {
    Add(id);
    return true;
  });
}

uint64_t Bitmap::MemoryBytes() const {
  uint64_t total = sizeof(Bitmap);
  for (const auto& [chunk, c] : containers_) {
    (void)chunk;
    total += c.MemoryBytes() + 48;  // map node overhead estimate
  }
  return total;
}

void Bitmap::Serialize(std::string* out) const {
  PutVarint64(out, containers_.size());
  for (const auto& [chunk, c] : containers_) {
    PutVarint64(out, chunk);
    out->push_back(c.dense ? 1 : 0);
    if (c.dense) {
      out->append(reinterpret_cast<const char*>(c.bits.data()),
                  c.bits.size() * sizeof(uint64_t));
    } else {
      PutVarint64(out, c.array.size());
      out->append(reinterpret_cast<const char*>(c.array.data()),
                  c.array.size() * sizeof(uint16_t));
    }
  }
}

}  // namespace gdbmicro
