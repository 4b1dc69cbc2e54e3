// Good twin for rule hot-alloc, alias edition: fixed-size storage and
// indices only — the shapes RecordPool / ChunkAllocator / the
// open-addressing FlowTable use on the real hot path — reached from the
// same SCAP_HOT root. Must produce zero findings.
#if defined(__clang__)
#define SCAP_HOT [[clang::annotate("scap_hot")]]
#define SCAP_COLD [[clang::annotate("scap_cold")]]
#else
#define SCAP_HOT
#define SCAP_COLD
#endif

namespace scap::kernel {

struct FlowSlot {
  unsigned long key = 0;
  int value = 0;
};

using SlotArray = FlowSlot[64];

class FlowIndex {
 public:
  SCAP_HOT int count(unsigned long key) {
    for (int i = 0; i < used_; ++i) {
      if (slots_[i].key == key) return ++slots_[i].value;
    }
    return -1;
  }

 private:
  SlotArray slots_;
  int used_ = 0;
};

}  // namespace scap::kernel
