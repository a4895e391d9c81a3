#include "relation/tuple_batch.hpp"

namespace ehja {

TupleBatch TupleBatch::from_tuples(const std::vector<Tuple>& tuples) {
  TupleBatch batch;
  batch.reserve(tuples.size());
  for (const Tuple& t : tuples) batch.push_back(t);
  return batch;
}

void TupleBatch::reserve(std::size_t n) {
  ids_.reserve(n);
  keys_.reserve(n);
}

void TupleBatch::clear() {
  ids_.clear();
  keys_.clear();
}

void TupleBatch::append_range(const TupleBatch& src, std::size_t begin,
                              std::size_t end) {
  ids_.insert(ids_.end(), src.ids_.begin() + begin, src.ids_.begin() + end);
  keys_.insert(keys_.end(), src.keys_.begin() + begin,
               src.keys_.begin() + end);
}

TupleBatch::Columns TupleBatch::append_rows(std::size_t n) {
  const std::size_t base = size();
  ids_.resize(base + n);
  keys_.resize(base + n);
  return Columns{ids_.data() + base, keys_.data() + base};
}

}  // namespace ehja
