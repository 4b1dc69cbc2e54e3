// Good twin for switch exhaustiveness: every switch over an enum names
// every enumerator. A default: may stay as the fallback for out-of-range
// values, but only next to the full list, so -Wswitch-enum still catches
// an enumerator added later. Compiles clean with -Werror=switch
// -Werror=switch-enum.
namespace scap::kernel {

enum class Verdict { kStored, kDropped, kIgnored };
enum class LocalPhase { kWarmup, kSteady, kDrain };

int exhaustive(Verdict v) {
  switch (v) {
    case Verdict::kStored:
      return 1;
    case Verdict::kDropped:
      return 2;
    case Verdict::kIgnored:
      return 3;
  }
  return 0;
}

int with_fallback(LocalPhase p) {
  switch (p) {
    case LocalPhase::kSteady:
      return 1;
    case LocalPhase::kWarmup:
    case LocalPhase::kDrain:
    default:
      return 0;
  }
}

}  // namespace scap::kernel
