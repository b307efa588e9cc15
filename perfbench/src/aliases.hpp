// Short names for the library namespaces the benchmark drives.
#pragma once

namespace modcast {
namespace util {}
namespace core {}
namespace runtime {}
namespace framework {}
namespace channel {}
namespace faults {}
namespace workload {}
}  // namespace modcast

namespace perfbench {
namespace util = modcast::util;
namespace core = modcast::core;
namespace runtime = modcast::runtime;
namespace framework = modcast::framework;
namespace channel = modcast::channel;
namespace faults = modcast::faults;
namespace workload = modcast::workload;
}  // namespace perfbench
