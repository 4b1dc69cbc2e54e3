// Bad twin for rule hot-alloc, alias edition: the allocations a per-file
// lint could only guess at, reached from a SCAP_HOT root. The container
// hides behind a type alias (the receiver type is resolved through it) and
// the operator new sits one call below the root. Declaring or
// default-constructing the map allocates nothing, so only the calls that
// do allocate are flagged. Fixtures are hermetic (fake std declarations,
// no includes).
#if defined(__clang__)
#define SCAP_HOT [[clang::annotate("scap_hot")]]
#define SCAP_COLD [[clang::annotate("scap_cold")]]
#else
#define SCAP_HOT
#define SCAP_COLD
#endif

namespace std {
template <class K, class V>
class unordered_map {
 public:
  unordered_map() {}
  V& operator[](const K& key);
};
}  // namespace std

namespace scap::kernel {

using FlowMap = std::unordered_map<int, int>;

class FlowIndex {
 public:
  SCAP_HOT int count(int key) {
    flows_[key] += 1;  // expect-chain: hot-alloc: kernel::FlowIndex::count -> std::unordered_map::operator[]
    int* spill = grow_table();
    return spill[0];
  }

 private:
  int* grow_table() {
    return new int[64];  // expect-chain: hot-alloc: kernel::FlowIndex::count -> kernel::FlowIndex::grow_table -> operator new
  }

  FlowMap flows_;
};

}  // namespace scap::kernel
