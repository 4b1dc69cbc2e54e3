// Bad twin for the waiver discipline: a waiver with no reason suppresses
// the underlying finding but is itself a finding — waivers are audited,
// and "because I said so" does not survive review.
namespace std {
class mutex {};
}  // namespace std

namespace scap {

class Registry {
 private:
  // expect-chain-next-line: waiver: -
  std::mutex mu_;  // scap-lint: allow(mutex-discipline)
};

}  // namespace scap
