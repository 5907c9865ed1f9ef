#include "apps/common/app.hpp"

#include "apps/common/verify.hpp"
#include "core/result_database.hpp"

namespace altis::apps {

void register_standard_app(std::string name, std::string description,
                           std::vector<Variant> variants,
                           AppResult (*run)(const RunConfig&)) {
    AppInfo info;
    info.name = std::move(name);
    info.description = std::move(description);
    info.variants = std::move(variants);
    info.run = [run](const RunConfig& cfg, ResultDatabase& db) {
        const std::string atts = "size=" + std::to_string(cfg.size) +
                                 ",device=" + cfg.device +
                                 ",variant=" + std::string(to_string(cfg.variant));
        // Each pass verifies its own output against a golden reference
        // computed on the first pass only (reference_once).
        reference_scope references;
        for (int pass = 0; pass < cfg.passes; ++pass) {
            if (pass > 0) references.next_pass();
            const AppResult r = run(cfg);
            db.add_result("kernel_time", atts, "ms", r.kernel_ms);
            db.add_result("non_kernel_time", atts, "ms", r.non_kernel_ms);
            db.add_result("total_time", atts, "ms", r.total_ms);
        }
    };
    Registry::instance().add(std::move(info));
}

}  // namespace altis::apps
