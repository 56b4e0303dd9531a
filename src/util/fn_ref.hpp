#pragma once

#include <type_traits>
#include <utility>

namespace coreda::util {

/// Non-owning, never-allocating callable reference (two words: a context
/// pointer plus a trampoline function pointer).
///
/// The closed-loop serving path wires BaseStation -> HomeDeployment ->
/// TriggerMonitor callbacks once at construction. std::function would heap-
/// allocate for any capture larger than the small-buffer optimisation and
/// re-wrap on every copy; FnRef stores nothing, so hooking components
/// together costs zero allocations and dispatch is one indirect call.
///
/// Lifetime contract: FnRef does NOT extend the life of what it points to.
/// Bind member functions of objects that outlive the reference (the System
/// owns every component it wires, so construction-time binds are safe), or
/// pass lvalue callables that outlive the callee.
template <typename Signature>
class FnRef;

template <typename R, typename... Args>
class FnRef<R(Args...)> {
 public:
  /// Empty reference; calling it is undefined. Test with operator bool.
  constexpr FnRef() noexcept = default;

  /// Binds an lvalue callable (lambda, functor, std::function). The callable
  /// must outlive this FnRef. Rvalues are rejected at compile time: binding
  /// a temporary would dangle immediately.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FnRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FnRef(F& callable) noexcept  // NOLINT(google-explicit-constructor)
      : context_(const_cast<void*>(static_cast<const void*>(&callable))),
        trampoline_(+[](void* ctx, Args... args) -> R {
          return (*static_cast<F*>(ctx))(std::forward<Args>(args)...);
        }) {}

  /// Binds a member function to an object: FnRef::bind<&Class::method>(obj).
  template <auto Method, typename T>
  static FnRef bind(T* object) noexcept {
    FnRef ref;
    ref.context_ = object;
    ref.trampoline_ = +[](void* ctx, Args... args) -> R {
      return (static_cast<T*>(ctx)->*Method)(std::forward<Args>(args)...);
    };
    return ref;
  }

  /// Binds a free function (or captureless lambda decayed to one).
  static FnRef bind(R (*fn)(Args...)) noexcept {
    FnRef ref;
    ref.context_ = reinterpret_cast<void*>(fn);
    ref.trampoline_ = +[](void* ctx, Args... args) -> R {
      return reinterpret_cast<R (*)(Args...)>(ctx)(
          std::forward<Args>(args)...);
    };
    return ref;
  }

  R operator()(Args... args) const {
    return trampoline_(context_, std::forward<Args>(args)...);
  }

  explicit operator bool() const noexcept { return trampoline_ != nullptr; }

 private:
  void* context_ = nullptr;
  R (*trampoline_)(void*, Args...) = nullptr;
};

}  // namespace coreda::util
