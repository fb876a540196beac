// FunctionRef: a non-owning reference to a callable, two pointers wide.
//
// Passing a lambda as `const std::function&` heap-allocates whenever its
// captures outgrow the small-buffer (a few pointers), once per call. A
// FunctionRef only stores the callable's address and a trampoline, so it
// never allocates; the referenced callable must outlive every call, which
// holds for the usual use — a callback argument invoked before the callee
// returns.
#ifndef SEQDL_BASE_FUNCTION_REF_H_
#define SEQDL_BASE_FUNCTION_REF_H_

#include <memory>
#include <type_traits>
#include <utility>

namespace seqdl {

template <typename Sig>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& f)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace seqdl

#endif  // SEQDL_BASE_FUNCTION_REF_H_
