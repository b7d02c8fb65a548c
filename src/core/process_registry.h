// Versioned process registry.
//
// "A new process may be defined by editing an old process by the addition,
// deletion, or modification of operators. In no case is the old process
// overwritten." Registering a process under an existing name appends a new
// version; every version stays addressable forever, which is what makes old
// tasks replayable.

#ifndef GAEA_CORE_PROCESS_REGISTRY_H_
#define GAEA_CORE_PROCESS_REGISTRY_H_

#include <map>
#include <string>
#include <vector>

#include "core/process.h"
#include "util/status.h"

namespace gaea {

class ProcessRegistry {
 public:
  ProcessRegistry() = default;
  ProcessRegistry(const ProcessRegistry&) = delete;
  ProcessRegistry& operator=(const ProcessRegistry&) = delete;

  // Registers `def`. A new name starts at version 1; an existing name gets
  // the next version (def's version field is overwritten unless replaying a
  // journaled definition whose version is already the expected next one).
  // Registering a version identical in structure to the current latest is
  // rejected (it would be the *same* process, not a new one).
  StatusOr<int> Register(ProcessDef def);

  // Latest version of `name`.
  StatusOr<const ProcessDef*> Latest(const std::string& name) const;
  // Specific version.
  StatusOr<const ProcessDef*> Version(const std::string& name,
                                      int version) const;
  // The version a derive request names: `version` > 0 picks that version,
  // anything else the latest.
  StatusOr<const ProcessDef*> Resolve(const std::string& name,
                                      int version) const {
    return version > 0 ? Version(name, version) : Latest(name);
  }
  bool Contains(const std::string& name) const;

  // All versions of a process, ascending.
  StatusOr<std::vector<const ProcessDef*>> History(
      const std::string& name) const;

  // Latest versions of all processes, sorted by name.
  std::vector<const ProcessDef*> ListLatest() const;

  // Latest versions of all processes whose output class is `class_name`.
  std::vector<const ProcessDef*> Producing(const std::string& class_name) const;

  size_t size() const { return processes_.size(); }

 private:
  std::map<std::string, std::vector<ProcessDef>> processes_;
};

}  // namespace gaea

#endif  // GAEA_CORE_PROCESS_REGISTRY_H_
