#include "lcp/plan/opt/dce.h"

#include <algorithm>
#include <string>
#include <unordered_set>
#include <variant>
#include <vector>

#include "lcp/plan/opt/ir_util.h"

namespace lcp {
namespace plan_opt {

bool DcePass::Run(Plan& plan, const Schema& /*schema*/,
                  PassStats& stats) const {
  std::unordered_set<std::string> live{plan.output_table};
  std::vector<bool> keep(plan.commands.size(), false);
  std::vector<std::string> referenced;
  for (size_t i = plan.commands.size(); i-- > 0;) {
    const Command& cmd = plan.commands[i];
    if (live.count(OutputTableOf(cmd)) == 0) continue;
    keep[i] = true;
    referenced.clear();
    AppendReferencedTables(cmd, referenced);
    live.insert(referenced.begin(), referenced.end());
  }

  if (std::find(keep.begin(), keep.end(), false) == keep.end()) return false;
  std::vector<Command> kept;
  kept.reserve(plan.commands.size());
  for (size_t i = 0; i < plan.commands.size(); ++i) {
    if (keep[i]) {
      kept.push_back(std::move(plan.commands[i]));
      continue;
    }
    ++stats.commands_removed;
    if (std::holds_alternative<AccessCommand>(plan.commands[i])) {
      ++stats.access_commands_removed;
    }
  }
  plan.commands = std::move(kept);
  ++stats.applications;
  return true;
}

}  // namespace plan_opt
}  // namespace lcp
