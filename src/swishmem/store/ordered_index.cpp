#include "swishmem/store/ordered_index.hpp"

#include <algorithm>
#include <stdexcept>

namespace swish::shm::store {
namespace {

// Fanout tuned for cache-line-sized leaves: 16 × 32-byte entries per leaf,
// 16 children per inner node. Height stays ≤ 6 at a million keys.
constexpr std::size_t kLeafCap = 16;
constexpr std::size_t kInnerCap = 16;

}  // namespace

std::uint64_t lpm_pack(std::uint64_t prefix, unsigned prefix_len, unsigned key_bits) {
  if (key_bits == 0 || key_bits > kMaxLpmKeyBits) {
    throw std::invalid_argument("lpm_pack: key_bits must be 1.." +
                                std::to_string(kMaxLpmKeyBits));
  }
  if (prefix_len > key_bits) {
    throw std::invalid_argument("lpm_pack: prefix_len exceeds key_bits");
  }
  return ((prefix & lpm_mask(prefix_len, key_bits)) << kLpmLenBits) | prefix_len;
}

struct OrderedIndex::Node {
  Node(bool is_leaf, std::shared_ptr<Counters> c) : leaf(is_leaf), counters(std::move(c)) {
    if (leaf) {
      ++counters->leaves;
    } else {
      ++counters->inners;
    }
  }
  ~Node() {
    if (leaf) {
      --counters->leaves;
    } else {
      --counters->inners;
    }
  }
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] bool full() const noexcept {
    return leaf ? entries.size() >= kLeafCap : children.size() >= kInnerCap;
  }

  /// Child subtree covering `key`: keys[i] is the smallest key of
  /// children[i+1], so the child index is the count of separators <= key.
  [[nodiscard]] std::size_t child_index(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>(
        std::upper_bound(keys.begin(), keys.end(), key) - keys.begin());
  }

  const bool leaf;
  std::vector<Entry> entries;           // leaf: sorted by key
  std::vector<std::uint64_t> keys;      // inner: separators (children.size()-1)
  std::vector<NodePtr> children;        // inner
  std::shared_ptr<Counters> counters;   // alive-node accounting outlives the index
};

OrderedIndex::OrderedIndex() : counters_(std::make_shared<Counters>()) {}

OrderedIndex::~OrderedIndex() {
  // Outstanding snapshots keep counters_ (and their pinned nodes) alive; the
  // observer must not outlive whoever installed it.
  counters_->observer = nullptr;
}

OrderedIndex::NodePtr OrderedIndex::clone(const Node& n) {
  auto copy = std::make_shared<Node>(n.leaf, counters_);
  copy->entries = n.entries;
  copy->keys = n.keys;
  copy->children = n.children;
  ++counters_->cow_copies;
  return copy;
}

OrderedIndex::Node* OrderedIndex::make_unique_child(Node& parent, std::size_t child_idx) {
  NodePtr& c = parent.children[child_idx];
  if (c.use_count() > 1) c = clone(*c);
  return c.get();
}

void OrderedIndex::split_child(Node& parent, std::size_t child_idx) {
  Node& c = *parent.children[child_idx];  // unique by construction
  std::uint64_t separator = 0;
  auto right = std::make_shared<Node>(c.leaf, counters_);
  if (c.leaf) {
    const std::size_t mid = c.entries.size() / 2;
    right->entries.assign(c.entries.begin() + static_cast<std::ptrdiff_t>(mid),
                          c.entries.end());
    c.entries.resize(mid);
    separator = right->entries.front().key;
  } else {
    const std::size_t mid = c.children.size() / 2;
    right->children.assign(c.children.begin() + static_cast<std::ptrdiff_t>(mid),
                           c.children.end());
    c.children.resize(mid);
    separator = c.keys[mid - 1];
    right->keys.assign(c.keys.begin() + static_cast<std::ptrdiff_t>(mid), c.keys.end());
    c.keys.resize(mid - 1);
  }
  parent.keys.insert(parent.keys.begin() + static_cast<std::ptrdiff_t>(child_idx), separator);
  parent.children.insert(parent.children.begin() + static_cast<std::ptrdiff_t>(child_idx) + 1,
                         std::move(right));
}

Entry& OrderedIndex::upsert(std::uint64_t key) {
  if (!root_) {
    root_ = std::make_shared<Node>(/*is_leaf=*/true, counters_);
  }
  if (root_.use_count() > 1) root_ = clone(*root_);
  if (root_->full()) {
    auto grown = std::make_shared<Node>(/*is_leaf=*/false, counters_);
    grown->children.push_back(root_);
    root_ = std::move(grown);
    split_child(*root_, 0);
  }
  Node* n = root_.get();
  while (!n->leaf) {
    std::size_t i = n->child_index(key);
    Node* c = make_unique_child(*n, i);
    if (c->full()) {
      split_child(*n, i);
      i = n->child_index(key);
      c = n->children[i].get();  // both split halves are freshly unique
    }
    n = c;
  }
  auto it = std::lower_bound(n->entries.begin(), n->entries.end(), key,
                             [](const Entry& e, std::uint64_t k) { return e.key < k; });
  if (it != n->entries.end() && it->key == key) return *it;
  it = n->entries.insert(it, Entry{.key = key});
  ++counters_->entries;
  return *it;
}

// Shared walk/find helpers: Snapshot holds only an opaque root, so these are
// free templates over the node type instead of members.
namespace {

template <typename NodeT>
const Entry* find_in(const NodeT* n, std::uint64_t key) noexcept {
  while (n != nullptr && !n->leaf) n = n->children[n->child_index(key)].get();
  if (n == nullptr) return nullptr;
  auto it = std::lower_bound(n->entries.begin(), n->entries.end(), key,
                             [](const Entry& e, std::uint64_t k) { return e.key < k; });
  if (it == n->entries.end() || it->key != key) return nullptr;
  return &*it;
}

/// In-order walk over keys in [lo, hi] (hi inclusive, so the full key space
/// is expressible); returns false when the visitor stopped the walk early.
template <typename NodeT>
bool walk(const NodeT* n, std::uint64_t lo, std::uint64_t hi,
          const OrderedIndex::Visitor& fn) {
  if (n == nullptr || lo > hi) return true;
  if (n->leaf) {
    auto it = std::lower_bound(n->entries.begin(), n->entries.end(), lo,
                               [](const Entry& e, std::uint64_t k) { return e.key < k; });
    for (; it != n->entries.end() && it->key <= hi; ++it) {
      if (!fn(*it)) return false;
    }
    return true;
  }
  const std::size_t first = n->child_index(lo);
  const std::size_t last = n->child_index(hi);
  for (std::size_t i = first; i <= last; ++i) {
    if (!walk(n->children[i].get(), lo, hi, fn)) return false;
  }
  return true;
}

template <typename NodeT, typename FindFn>
const Entry* lpm_probe(const NodeT* root, std::uint64_t key, unsigned key_bits,
                       FindFn&& find) noexcept {
  if (root == nullptr || key_bits == 0 || key_bits > kMaxLpmKeyBits) return nullptr;
  for (unsigned len = key_bits + 1; len-- > 0;) {
    const std::uint64_t probe = ((key & lpm_mask(len, key_bits)) << kLpmLenBits) | len;
    const Entry* e = find(probe);
    if (e != nullptr && e->value != kStoreTombstone) return e;
  }
  return nullptr;
}

}  // namespace

const Entry* OrderedIndex::find(std::uint64_t key) const noexcept {
  return find_in(root_.get(), key);
}

void OrderedIndex::for_each(const Visitor& fn) const {
  walk(root_.get(), 0, ~0ULL, fn);
}

const Entry* OrderedIndex::lookup_lpm(std::uint64_t key, unsigned key_bits) const noexcept {
  return lpm_probe(root_.get(), key, key_bits,
                   [this](std::uint64_t k) { return find(k); });
}

OrderedIndex::Snapshot OrderedIndex::snapshot() const {
  ++counters_->pins;
  if (counters_->observer) counters_->observer();
  return Snapshot(std::static_pointer_cast<const void>(root_), counters_->entries, counters_);
}

void OrderedIndex::clear() {
  root_.reset();
  counters_->entries = 0;
}

std::size_t OrderedIndex::memory_bytes() const noexcept {
  // Fixed-capacity estimate per node class: deterministic and honest about
  // frozen pages — pinned-but-replaced nodes stay in leaves/inners until the
  // last snapshot referencing them dies.
  const std::size_t leaf_bytes = sizeof(Node) + kLeafCap * sizeof(Entry);
  const std::size_t inner_bytes =
      sizeof(Node) + kInnerCap * (sizeof(std::uint64_t) + sizeof(NodePtr));
  return counters_->leaves * leaf_bytes + counters_->inners * inner_bytes;
}

// -- Snapshot -----------------------------------------------------------------

OrderedIndex::Snapshot::Snapshot(std::shared_ptr<const void> root, std::size_t entries,
                                 std::shared_ptr<Counters> counters) noexcept
    : root_(std::move(root)), entries_(entries), counters_(std::move(counters)) {}

OrderedIndex::Snapshot::~Snapshot() { release(); }

OrderedIndex::Snapshot& OrderedIndex::Snapshot::operator=(Snapshot&& other) noexcept {
  if (this != &other) {
    release();
    root_ = std::move(other.root_);
    entries_ = other.entries_;
    counters_ = std::move(other.counters_);
    other.entries_ = 0;
  }
  return *this;
}

void OrderedIndex::Snapshot::release() noexcept {
  if (counters_) {
    --counters_->pins;
    if (counters_->observer) counters_->observer();
    counters_.reset();
  }
  root_.reset();
  entries_ = 0;
}

const Entry* OrderedIndex::Snapshot::find(std::uint64_t key) const noexcept {
  return find_in(static_cast<const Node*>(root_.get()), key);
}

void OrderedIndex::Snapshot::for_each(const Visitor& fn) const {
  walk(static_cast<const Node*>(root_.get()), 0, ~0ULL, fn);
}

bool OrderedIndex::Snapshot::scan(std::uint64_t lo, const Visitor& fn) const {
  return walk(static_cast<const Node*>(root_.get()), lo, ~0ULL, fn);
}

}  // namespace swish::shm::store
