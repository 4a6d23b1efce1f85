// Whole-state snapshot encoder: every call encodes every record of a
// ControllerState, with no cached chain blocks.  The oracle that
// controller_state_test compares ControllerState::snapshot() against;
// nothing under src/ links it.
#pragma once

#include <string>
#include <vector>

#include "control/controller_state.hpp"

namespace switchboard::control {

/// The records of `state`'s snapshot, in snapshot order: epoch, allocator,
/// each chain with begin + commit per route, dead pools, in-flight rounds.
[[nodiscard]] std::vector<std::string> snapshot_reference(
    const ControllerState& state);

}  // namespace switchboard::control
