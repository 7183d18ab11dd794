#pragma once

#include <cstdint>

#include "sim/error.h"
#include "sim/types.h"

namespace hht::core {

using sim::Cycle;

/// Operating mode programmed into the MODE register (§3, §5.1, §6).
enum class Mode : std::uint32_t {
  SpmvGather = 0,  ///< SpMV: gather V values at the row's column indices
  SpmspvV1 = 1,    ///< SpMSpV variant-1: emit aligned (m_val, v_val) pairs
  SpmspvV2 = 2,    ///< SpMSpV variant-2: emit v value or 0 per matrix NZ
  HierBitmap = 3,  ///< SMASH-style hierarchical-bitmap walk + gather (§6)
  FlatBitmap = 4,  ///< one-level bit-vector walk (Fig. 1's second format)
};

/// ASIC HHT design-time parameters.
///
/// Table 1 fixes N=2 buffers of 32 B (8 x 32-bit elements, matching the
/// vector width BLEN). The back-end's single memory port (one request per
/// cycle) and one-comparison-per-cycle merge unit reflect the "simple
/// dedicated hardware" sizing of §3; benches sweep these for ablations.
struct HhtConfig {
  std::uint32_t num_buffers = 2;        ///< N CPU-side buffers (>=1)
  std::uint32_t buffer_len = 8;         ///< BLEN, elements per buffer
  std::uint32_t be_issue_per_cycle = 1; ///< BE memory requests issued/cycle
  std::uint32_t cmp_per_cycle = 1;      ///< comparisons per merge step (v1/v2)
  /// Cycles per merge step: the compare-select-advance recurrence of the
  /// merge unit (head mux, comparator, pointer update) does not close in a
  /// single cycle in the ASIC, so one comparison completes every
  /// cmp_recurrence cycles.
  std::uint32_t cmp_recurrence = 2;
  std::uint32_t emit_per_cycle = 2;     ///< slots drained to buffers/cycle
  std::uint32_t prefetch_queue = 8;     ///< per-stream index prefetch depth
  /// Reorder/emission queue depth. This models the pipeline-stage storage
  /// between the BE and the CPU-side buffers, so it is kept small — a deep
  /// queue would act as hidden extra buffering and erase the difference
  /// between the 1-buffer and 2-buffer configurations of Fig. 4/5.
  std::uint32_t emission_queue = 2;

  /// End-to-end stream checksum channel (DESIGN.md §15): the BE folds every
  /// slot it stages into a running CRC-32C, the last slot of each published
  /// buffer carries the running value as a check tag, and the FE re-folds
  /// every slot it delivers and compares at each tag — so corruption
  /// anywhere between staging and delivery (FIFO cell, merge path, the
  /// delivery port itself) raises FaultCause::StreamCheck at the
  /// architectural boundary instead of shipping silently. Excluded from the
  /// snapshot config fingerprint (same discipline as sched_mode):
  /// with no corruption the channel never changes an architectural outcome.
  bool e2e_check = false;
  /// Poison containment (DESIGN.md §15): an ECC-uncorrectable *value* fetch
  /// no longer freezes the whole engine at poll time; the poisoned response
  /// fills its reserved slot with the poison bit set, flows through the
  /// FIFOs in order, and faults (MemUncorrectable) precisely when the FE
  /// would deliver it — turning a coarse pipeline freeze into an exact,
  /// tile-attributable delivery-point error. Metadata walks (row pointers,
  /// index streams) keep the immediate-fault semantics: their loss corrupts
  /// control flow, not one element. Fingerprint-excluded like e2e_check.
  bool poison_containment = false;

  /// Test-only hook for the verification layer: when not ~0, the FE XORs
  /// bit 0 of the Nth delivered BUF_DATA element (0-based, parity left OK —
  /// a *silent* corruption the differential oracle must catch). Never set
  /// outside fuzz-campaign self-tests; no hardware analogue.
  std::uint64_t test_flip_element = ~0ull;

  /// Reject impossible sizings with SimError(Config). Every field below is
  /// a hardware resource count — zero means "this unit does not exist" and
  /// the pipelines would deadlock rather than error at runtime.
  void validate() const {
    const struct {
      const char* name;
      std::uint32_t value;
    } required[] = {
        {"num_buffers", num_buffers},
        {"buffer_len", buffer_len},
        {"be_issue_per_cycle", be_issue_per_cycle},
        {"cmp_per_cycle", cmp_per_cycle},
        {"cmp_recurrence", cmp_recurrence},
        {"emit_per_cycle", emit_per_cycle},
        {"prefetch_queue", prefetch_queue},
        {"emission_queue", emission_queue},
    };
    for (const auto& field : required) {
      if (field.value == 0) {
        throw sim::SimError(sim::ErrorKind::Config, "hht",
                            std::string(field.name) + " must be >= 1");
      }
    }
    // Variant-1 reserves both slots of an aligned (m_val, v_val) pair
    // atomically at compare time so the stream order is fixed while the two
    // value fetches are in flight. A 1-deep emission queue can never accept
    // a pair, so the back-end wedges with the CPU blocked on the FE — found
    // by the differential fuzz campaign, now rejected up front.
    if (emission_queue < 2) {
      throw sim::SimError(sim::ErrorKind::Config, "hht",
                          "emission_queue must be >= 2 (variant-1 reserves "
                          "aligned m/v pair slots atomically)");
    }
  }
};

}  // namespace hht::core
