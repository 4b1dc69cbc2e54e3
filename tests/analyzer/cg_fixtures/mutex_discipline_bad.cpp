// Bad twin for rule mutex-discipline: raw std::mutexes smuggled behind a
// `using` alias and a typedef, plus a std::lock_guard local. Raw primitives are invisible to
// the clang thread-safety analysis — nothing can be SCAP_GUARDED_BY them —
// so only the annotated wrappers in src/base/mutex.hpp are allowed.
// Declarations carry no call chain, hence the "-" sentinel.
namespace std {
class mutex {
 public:
  void lock();
  void unlock();
};
template <class M>
class lock_guard {
 public:
  explicit lock_guard(M& m);
};
}  // namespace std

namespace scap {

using Lock = std::mutex;  // the alias table sees through it
typedef std::mutex LegacyLock;  // and through typedefs

class Registry {
 public:
  void touch() {
    std::lock_guard<std::mutex> hold(mu_);  // expect-chain: mutex-discipline: -
    ++epoch_;
  }

 private:
  Lock mu_;  // expect-chain: mutex-discipline: -
  LegacyLock legacy_mu_;  // expect-chain: mutex-discipline: -
  unsigned long epoch_ = 0;
};

}  // namespace scap
