#pragma once
/// \file chimera.hpp
/// Chimera-style virtual data catalog.
///
/// The paper's requests originate from "a workflow planner such as the
/// Chimera Virtual Data System" (section 3.3): users register
/// *transformations* (executables) and *derivations* (invocations with
/// bound logical inputs/outputs); asking for a logical file compiles the
/// derivation closure into an abstract DAG.  This module provides that
/// front end over workflow::Dag.

#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "workflow/dag.hpp"
#include "workflow/generator.hpp"  // for IdSpace

namespace sphinx::workflow {

/// A registered executable.
struct Transformation {
  std::string name;
  Duration compute_time = 60.0;
};

/// One invocation of a transformation producing one logical output.
struct Derivation {
  std::string transformation;  // sphinx-lint-allow(test-only): the catalog in this pair resolves it
  std::vector<data::Lfn> inputs;
  data::Lfn output;
  double output_bytes = 0.0;
};

class VirtualDataCatalog {
 public:
  /// Registers a transformation; re-registration replaces it.
  void add_transformation(Transformation t);

  /// Registers a derivation.  Fails if its transformation is unknown or
  /// another derivation already produces the same output (virtual data
  /// must be uniquely derivable).
  [[nodiscard]] StatusOrError add_derivation(Derivation d);

  [[nodiscard]] std::size_t derivation_count() const noexcept {
    return derivations_.size();
  }

  /// Compiles the abstract DAG that materializes `target`: the producing
  /// derivation plus, recursively, derivations for every derivable input.
  /// Inputs with no derivation are assumed pre-existing (the DAG reducer
  /// and RLS deal with them later).  Fails if `target` is not derivable
  /// or the derivation graph is cyclic.
  [[nodiscard]] Expected<Dag> request(const data::Lfn& target, IdSpace& ids,
                                      const std::string& dag_name) const;

 private:
  std::map<std::string, Transformation> transformations_;
  std::map<data::Lfn, Derivation> derivations_;  // keyed by output
};

}  // namespace sphinx::workflow
