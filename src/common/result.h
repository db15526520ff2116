// A minimal expected/Result type for recoverable failures.
//
// Protocol decode paths, registry lookups, and state-machine guards return
// Result<T, E> instead of throwing: malformed input from a peer is an
// expected event in a network, not a programming error. (C++20 predates
// std::expected; this is the small subset dLTE needs.)
#pragma once

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace dlte {

// Error marker: disambiguates value from error even when T and E are the
// same type (e.g. Result<std::string, std::string>).
template <typename E>
struct Err {
  E value;
  explicit Err(E v) : value(std::move(v)) {}
};
inline Err<std::string> fail(std::string message) {
  return Err<std::string>{std::move(message)};
}

template <typename T, typename E = std::string>
class [[nodiscard]] Result {
 public:
  // Implicit from a value or a wrapped error keeps call sites terse:
  //   return AttachAccept{...};
  //   return fail("short buffer");
  Result(T value) : storage_(std::in_place_index<0>, std::move(value)) {}
  Result(Err<E> error)
      : storage_(std::in_place_index<1>, std::move(error.value)) {}

  [[nodiscard]] bool ok() const { return storage_.index() == 0; }
  explicit operator bool() const { return ok(); }

  [[nodiscard]] T& value() & {
    assert(ok());
    return std::get<0>(storage_);
  }
  [[nodiscard]] const T& value() const& {
    assert(ok());
    return std::get<0>(storage_);
  }
  [[nodiscard]] T&& value() && {
    assert(ok());
    return std::get<0>(std::move(storage_));
  }

  [[nodiscard]] const E& error() const& {
    assert(!ok());
    return std::get<1>(storage_);
  }

  [[nodiscard]] T value_or(T fallback) const& {
    return ok() ? std::get<0>(storage_) : std::move(fallback);
  }

  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }
  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }

 private:
  std::variant<T, E> storage_;
};

}  // namespace dlte
