#include "gpusim/sim_device.h"

#include <cstring>

#include "common/logging.h"

namespace blusim::gpusim {

SimDevice::SimDevice(int device_id, const DeviceSpec& spec,
                     const HostSpec& host, int workers)
    : device_id_(device_id),
      spec_(spec),
      cost_model_(host, spec),
      memory_(spec.device_memory_bytes),
      launcher_(spec, workers) {}

SimTime SimDevice::CopyToDevice(const void* src, DeviceBuffer* dst,
                                uint64_t bytes, bool pinned) {
  BLUSIM_CHECK(dst != nullptr && dst->valid());
  BLUSIM_CHECK(bytes <= dst->size());
  std::memcpy(dst->data(), src, bytes);
  const SimTime t = cost_model_.TransferTime(bytes, pinned);
  monitor_.Record(GpuEvent::kTransferToDevice, t, bytes);
  return t;
}

SimTime SimDevice::CopyFromDevice(const DeviceBuffer& src, void* dst,
                                  uint64_t bytes, bool pinned) {
  BLUSIM_CHECK(src.valid());
  BLUSIM_CHECK(bytes <= src.size());
  std::memcpy(dst, src.data(), bytes);
  const SimTime t = cost_model_.TransferTime(bytes, pinned);
  monitor_.Record(GpuEvent::kTransferFromDevice, t, bytes);
  return t;
}

void SimDevice::AccountKernel(const char* name, SimTime duration) {
  monitor_.RecordKernel(name, duration);
}

void SimDevice::SampleMemoryUsage(SimTime now) {
  monitor_.SampleMemory(now, memory_.reserved());
}

}  // namespace blusim::gpusim
