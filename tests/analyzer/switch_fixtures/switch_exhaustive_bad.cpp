// Bad twin for switch exhaustiveness, now enforced by the compiler: the
// root CMakeLists.txt builds everything with -Wswitch-enum. One switch
// hides a future enumerator behind default:, the other silently misses a
// case. Each `expect-diag` line must draw a switch diagnostic when the
// file is compiled with -Werror=switch -Werror=switch-enum.
namespace scap::kernel {

enum class Verdict { kStored, kDropped, kIgnored };

int with_default(Verdict v) {
  switch (v) {  // expect-diag: switch
    case Verdict::kStored:
      return 1;
    case Verdict::kDropped:
      return 2;
    default:
      return 0;
  }
}

int missing_case(Verdict v) {
  switch (v) {  // expect-diag: switch
    case Verdict::kStored:
      return 1;
    case Verdict::kDropped:
      return 2;
  }
  return 0;
}

}  // namespace scap::kernel
