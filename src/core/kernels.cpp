#include "core/kernels.h"

#include "core/logging.h"

namespace sov {

const char *
kernelBackendName(KernelBackend backend)
{
    switch (backend) {
    case KernelBackend::Reference:
        return "reference";
    case KernelBackend::Fast:
        return "fast";
    }
    SOV_PANIC("unknown kernel backend");
}

KernelBackend
kernelBackendFromName(const std::string &name)
{
    if (name == "reference" || name == "ref")
        return KernelBackend::Reference;
    if (name == "fast")
        return KernelBackend::Fast;
    SOV_PANIC(("unknown kernel backend name: " + name).c_str());
}

} // namespace sov
